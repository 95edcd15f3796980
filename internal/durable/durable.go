// Package durable owns the repository's crash-safety protocols, so the
// record format, the torn-tail policy and the fsync protocol are each
// decided once.  A sealed record is a JSON object whose last field,
// "sum", is the hex SHA-256 of the object's bytes without that field.
// A Log appends sealed lines, one fsynced write each, and ends a torn
// final line before the next append.  WriteFile replaces a file
// atomically: temp file, fsync, rename, directory fsync.  The sweep
// checkpoint journal, the service's job journal and result cache, and
// every RUN.json or bench record a command writes go through it.
package durable

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Sum is the hex SHA-256 of b.
func Sum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// sealTail is the length of a sealed record's end: `,"sum":"`, 64 hex
// digits, `"}`.
const sealTail = len(`,"sum":""}`) + sha256.Size*2

// Seal returns the sealed form of v, which must marshal to a non-empty
// JSON object with no "sum" key of its own.
func Seal(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	if len(b) <= 2 || b[0] != '{' || b[len(b)-1] != '}' {
		return nil, fmt.Errorf("durable: seal: %T is not a non-empty JSON object", v)
	}
	sum := Sum(b)
	return append(b[:len(b)-1], `,"sum":"`+sum+`"}`...), nil
}

// Unseal verifies a sealed record and decodes it into v.  It accepts
// exactly the bytes Seal would produce for the decoded value: a record
// whose checksum mismatches, whose "sum" is not its last field, or
// whose payload is not the canonical encoding of v's type is rejected.
func Unseal(line []byte, v any) error {
	k := len(line) - sealTail
	if k < 2 || !bytes.HasPrefix(line[k:], []byte(`,"sum":"`)) || !bytes.HasSuffix(line, []byte(`"}`)) {
		return errors.New("record missing sum")
	}
	payload := append(line[:k:k], '}')
	have := string(line[k+len(`,"sum":"`) : len(line)-2])
	if want := Sum(payload); have != want {
		return fmt.Errorf("checksum mismatch (have %s, want %s)", have, want)
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return err
	}
	if canon, err := json.Marshal(v); err != nil || !bytes.Equal(canon, payload) {
		return errors.New("record is not in canonical form")
	}
	return nil
}

// ReadLines calls each with every non-blank line of r, surrounding
// white space trimmed, numbered from 1 over all lines.  A final line
// without its newline is passed like any other; whether a caller
// tolerates one that fails to verify is its policy.  ReadLines stops at
// the first error from each or from r and returns it.
func ReadLines(r io.Reader, each func(n int, line []byte) error) error {
	br := bufio.NewReader(r)
	for n := 1; ; n++ {
		line, err := br.ReadBytes('\n')
		if t := bytes.TrimSpace(line); len(t) > 0 {
			if cerr := each(n, t); cerr != nil {
				return cerr
			}
		}
		if err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// Log is an open append-only log of sealed lines, safe for concurrent
// Append calls.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	torn bool // the file ends in a line without its newline
}

// OpenLog opens the log at path, creating it (and fsyncing its
// directory) if needed, and passes each existing line to each unless
// each is nil.
func OpenLog(path string, each func(line []byte)) (*Log, error) {
	_, statErr := os.Lstat(path)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if errors.Is(statErr, os.ErrNotExist) {
		err = syncDir(filepath.Dir(path))
	} else if each != nil {
		err = ReadLines(f, func(_ int, line []byte) error { each(line); return nil })
	}
	var fi os.FileInfo
	if err == nil {
		fi, err = f.Stat()
	}
	last := []byte{'\n'}
	if err == nil && fi.Size() > 0 {
		_, err = f.ReadAt(last, fi.Size()-1)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, torn: last[0] != '\n'}, nil
}

// Append writes one sealed line as a single fsynced write, ending a
// torn final line first.  It returns how long the fsync took.
func (l *Log) Append(sealed []byte) (time.Duration, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := make([]byte, 0, len(sealed)+2)
	if l.torn {
		b = append(b, '\n')
	}
	if _, err := l.f.Write(append(append(b, sealed...), '\n')); err != nil {
		return 0, err
	}
	l.torn = false
	t0 := time.Now()
	if err := l.f.Sync(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// Close releases the log file.
func (l *Log) Close() error { return l.f.Close() }

// WriteFile replaces path with data atomically, creating parent
// directories as needed: the destination holds either the old content
// or the complete new content, across process crashes and power loss.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(perm)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making a create or rename in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
