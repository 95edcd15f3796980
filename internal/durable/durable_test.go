package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// record is a typical sealed-record payload: a version first, nested
// values, floats and HTML-escaped text.
type record struct {
	V    int               `json:"v"`
	Name string            `json:"name,omitempty"`
	Vals []float64         `json:"vals,omitempty"`
	Tags map[string]string `json:"tags,omitempty"`
}

// TestSealMatchesSumFieldEncoding pins the on-disk format: a sealed
// record is byte for byte what marshalling the record with a trailing
// `json:"sum,omitempty"` field set to the SHA-256 of its sum-less
// encoding produces, the layout every journal has always written.
func TestSealMatchesSumFieldEncoding(t *testing.T) {
	type withSum struct {
		record
		Sum string `json:"sum,omitempty"`
	}
	r := record{V: 1, Name: "<a & b>", Vals: []float64{0.1, 1e-9, 3}, Tags: map[string]string{"z": "1", "a": "2"}}
	bare, err := json.Marshal(withSum{record: r})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(withSum{record: r, Sum: Sum(bare)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Seal(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Seal = %s\nwant   %s", got, want)
	}
	var back record
	if err := Unseal(got, &back); err != nil {
		t.Fatalf("Unseal(Seal(r)): %v", err)
	}
	if !reflect.DeepEqual(back, r) {
		t.Fatalf("round trip = %+v, want %+v", back, r)
	}
	if _, err := Seal([]int{1}); err == nil {
		t.Fatal("sealed a JSON array")
	}
	if _, err := Seal(struct{}{}); err == nil {
		t.Fatal("sealed an empty object")
	}
}

// TestSealRejectsTampering: Unseal accepts only exactly what Seal
// writes -- a flipped byte, a torn line, a reformatted payload, an
// unknown field or a sum that is not the last field all fail.
func TestSealRejectsTampering(t *testing.T) {
	good, err := Seal(record{V: 1, Name: "x", Vals: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	s := string(good)
	sum := s[strings.Index(s, `"sum":"`)+7 : len(s)-2]
	cases := map[string]string{
		"tampered":      strings.Replace(s, "0.5", "0.6", 1),
		"torn":          s[:len(s)-5],
		"no sum":        `{"v":1,"name":"x","vals":[0.5]}`,
		"reformatted":   strings.Replace(s, `"v":1,`, `"v": 1,`, 1),
		"sum not last":  `{"sum":"` + sum + `","v":1,"name":"x","vals":[0.5]}`,
		"upper-case":    strings.Replace(s, sum, strings.ToUpper(sum), 1),
		"unknown field": `{"v":1,"w":2,"sum":"` + Sum([]byte(`{"v":1,"w":2}`)) + `"}`,
		"empty comma":   `{,"sum":"` + Sum([]byte("{}")) + `"}`,
	}
	for name, line := range cases {
		var r record
		if err := Unseal([]byte(line), &r); err == nil {
			t.Errorf("%s: Unseal accepted %s", name, line)
		}
	}
	if err := Unseal(good, &record{}); err != nil {
		t.Fatalf("good line rejected: %v", err)
	}
}

// TestReadLinesNumbersAndStops: blank lines are skipped but counted,
// lines arrive trimmed, a final line without its newline is delivered,
// and the first callback error stops the read.
func TestReadLinesNumbersAndStops(t *testing.T) {
	var got []string
	err := ReadLines(strings.NewReader("a\n\n  b \r\nc"), func(n int, line []byte) error {
		got = append(got, fmt.Sprintf("%d:%s", n, line))
		return nil
	})
	if err != nil || strings.Join(got, " ") != "1:a 3:b 4:c" {
		t.Fatalf("got %q, %v", got, err)
	}
	stop := errors.New("stop")
	calls := 0
	err = ReadLines(strings.NewReader("a\nb\nc\n"), func(int, []byte) error { calls++; return stop })
	if !errors.Is(err, stop) || calls != 1 {
		t.Fatalf("err %v after %d calls, want stop after 1", err, calls)
	}
}

// TestAppendLogEndsTornTail: a log whose last line lost its newline in
// a crash gets that line ended before the next append, so the appended
// record stands on a line of its own and reads back on reopen.
func TestAppendLogEndsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	line, err := Seal(record{V: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(append(line, '\n'), line[:9]...), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OpenLog(path, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := l.Append(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var lines []string
	l, err = OpenLog(path, func(b []byte) { lines = append(lines, string(b)) })
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	want := []string{string(line), string(line[:9]), string(line), string(line)}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Fatalf("lines after reopen:\n%s\nwant\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
}

// TestAppendLogConcurrent: concurrent appends never interleave within
// a line.
func TestAppendLogConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := OpenLog(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				b, err := Seal(record{V: g, Name: strings.Repeat("x", 100*i)})
				if err == nil {
					_, err = l.Append(b)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	l, err = OpenLog(path, func(b []byte) {
		n++
		if err := Unseal(b, &record{}); err != nil {
			t.Errorf("line %d: %v", n, err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if n != 32 {
		t.Fatalf("read %d lines, want 32", n)
	}
}

// TestWriteFileAtomic: creates parent directories, replaces existing
// content completely, and leaves no temp files behind.  Whether the
// directory fsync happened is invisible to any in-process test.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "out.json")
	if err := WriteFile(path, []byte("first"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := WriteFile(path, []byte("second"), 0o644); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "second" {
		t.Fatalf("content = %q, err %v; want \"second\"", b, err)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "sub"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Errorf("directory has %d entries, want 1 (temp file left behind?)", len(ents))
	}
}

// FuzzUnseal: Unseal never panics, and whatever it accepts re-seals to
// exactly the same bytes.  Seeds: testdata/fuzz/FuzzUnseal.
func FuzzUnseal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var r record
		if Unseal(data, &r) != nil {
			return
		}
		b, err := Seal(r)
		if err != nil {
			t.Fatalf("accepted %q but cannot re-seal: %v", data, err)
		}
		if !bytes.Equal(b, data) {
			t.Fatalf("accepted %q, re-sealed to %q", data, b)
		}
	})
}
