package service

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"runtime"
	"testing"

	"subcache/internal/sweep"
)

// FuzzSweepRequest: whatever bytes a client POSTs to /v1/sweeps, body
// decoding plus resolve either refuses them (a 400) or yields a valid
// request whose wire form re-encodes to the same request and
// fingerprint.  Neither step may panic, and neither may allocate in
// proportion to a field's value -- a "shards":1099511627776 body must
// be refused, not planned.
func FuzzSweepRequest(f *testing.F) {
	s := &Server{opts: Options{MaxRefs: 2_000_000}}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		wire, err := decodeSweepRequest(nil, io.NopCloser(bytes.NewReader(data)))
		if err != nil {
			return
		}
		req, fp, err := s.resolve(&wire)
		runtime.ReadMemStats(&after)
		if limit := uint64(1<<20 + 64*len(data)); after.TotalAlloc-before.TotalAlloc > limit {
			t.Fatalf("decoding and resolving %d bytes allocated %d, over %d", len(data), after.TotalAlloc-before.TotalAlloc, limit)
		}
		if err != nil {
			return
		}
		if req.Refs < 1 || req.Refs > s.opts.MaxRefs || req.Shards < 0 || req.Shards > sweep.MaxShards || len(req.Points) == 0 {
			t.Fatalf("resolve accepted an out-of-range request: refs %d shards %d points %d", req.Refs, req.Shards, len(req.Points))
		}
		if fp == "" {
			t.Fatal("resolve accepted a request with an empty fingerprint")
		}

		again, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		wire2, err := decodeSweepRequest(nil, io.NopCloser(bytes.NewReader(again)))
		if err != nil {
			t.Fatalf("re-encoded request %s does not decode: %v", again, err)
		}
		req2, fp2, err := s.resolve(&wire2)
		if err != nil {
			t.Fatalf("re-encoded request %s refused: %v", again, err)
		}
		if fp2 != fp {
			t.Fatalf("fingerprint %s became %s after re-encoding %s", fp, fp2, again)
		}
		if !reflect.DeepEqual(req2, req) {
			t.Fatalf("request changed after re-encoding %s", again)
		}
	})
}
