package telemetry

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"
)

// fuzzInput hands out a fuzz input's bytes as typed values, yielding
// zeros once it runs dry, so one input drives a whole op sequence.
type fuzzInput struct{ b []byte }

func (f *fuzzInput) more() bool { return len(f.b) > 0 }

func (f *fuzzInput) byte() byte {
	if len(f.b) == 0 {
		return 0
	}
	c := f.b[0]
	f.b = f.b[1:]
	return c
}

func (f *fuzzInput) u64() uint64 {
	var buf [8]byte
	n := copy(buf[:], f.b)
	f.b = f.b[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

// str takes a length byte and up to that many raw bytes (any bytes:
// quotes, backslashes, newlines, invalid UTF-8).
func (f *fuzzInput) str() string {
	n := int(f.byte() % 32)
	if n > len(f.b) {
		n = len(f.b)
	}
	s := string(f.b[:n])
	f.b = f.b[n:]
	return s
}

// fuzzRecord drives a recorder with the instrument calls the pipeline
// makes -- counters, gauges, stage and service histograms, shard
// aggregates -- with values drawn from the input.
func fuzzRecord(r *Run, in *fuzzInput, op byte) {
	switch op % 5 {
	case 0:
		r.Add(Counter(int(in.byte())%int(numCounters)), in.u64())
	case 1:
		r.SetGauge(Gauge(int(in.byte())%int(numGauges)), int64(in.u64()))
	case 2:
		r.Observe(Stage(int(in.byte())%int(numStages)), time.Duration(in.u64()))
	case 3:
		r.ObserveDur(Hist(int(in.byte())%int(numHists)), time.Duration(in.u64()))
	case 4:
		r.ShardObserve(int(in.byte()%66)-1, in.u64(), time.Duration(in.u64()))
	}
}

// FuzzPromText: the strict exposition parser never panics on arbitrary
// bytes, and whatever snapshot a recorder produces, WritePromText
// renders it as an exposition that parser accepts -- including
// arbitrary build-label values and non-finite extra gauges.
func FuzzPromText(f *testing.F) {
	f.Add([]byte("# HELP a A counter.\n# TYPE a counter\na 1\n"))
	f.Add([]byte("# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 0.05\nh_count 1\n"))
	f.Add([]byte("a{x=\"q\\\"\\\\\\n\"} NaN 17\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ValidatePromText(bytes.NewReader(data))

		in := &fuzzInput{b: data}
		r := NewRun(Options{})
		for in.more() {
			fuzzRecord(r, in, in.byte())
		}
		in = &fuzzInput{b: data}
		extra := map[string]float64{
			"workers":     math.Float64frombits(in.u64()),
			"queue_depth": float64(int64(in.u64())),
		}
		build := map[string]string{"version": string(data), "goos": in.str()}
		var b strings.Builder
		if err := WritePromText(&b, "fuzz", r.Snapshot(), extra, build); err != nil {
			t.Fatal(err)
		}
		if _, err := ValidatePromText(strings.NewReader(b.String())); err != nil {
			t.Fatalf("own exposition rejected: %v\n%s", err, b.String())
		}
	})
}

// FuzzValidateStream: the stream validator never panics on arbitrary
// bytes, and any stream a Run writes through a JSONL sink validates,
// whatever its mix of events, as long as the caller keeps the span
// contract the pipeline keeps: children start inside open parents and
// end before them, and a point-done falls inside a span carrying its
// workload once spans appear.
func FuzzValidateStream(f *testing.F) {
	f.Add([]byte(`{"v":2,"type":"point-done","seq":0,"elapsed_ms":0,"point_done":{"workload":"W","point":"64:4,2"}}` + "\n"))
	f.Add([]byte(`{"v":2,"type":"span-end","seq":3,"elapsed_ms":1,"span_end":{"id":"x#1","dur_ns":5}}` + "\n"))
	f.Add([]byte{5, 5, 0, 7, 3, 9, 6, 6, 10, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ValidateStream(bytes.NewReader(data))

		in := &fuzzInput{b: data}
		var buf bytes.Buffer
		r := NewRun(Options{
			Sink:        NewJSONLSink(&buf),
			OnHeartbeat: func(*Snapshot) {},
			TraceID:     in.str(),
		})
		workloads := []string{"ED", "CCP", "SPICE", "FGO1"}
		type open struct {
			span     *ActiveSpan
			workload string
		}
		var stack []open
		spans := false
		for in.more() {
			op := in.byte()
			wl := workloads[int(in.byte())%len(workloads)]
			switch op % 11 {
			case 0:
				r.Emit(&Event{Type: EventRunStart, RunStart: &RunStart{
					Arch: "PDP-11", Engine: "multipass", Shards: int(in.byte()),
					Points: 1 + int(in.byte()), Workloads: 1 + int(in.byte()), Refs: 1 + int(in.byte()),
				}})
			case 1:
				if spans {
					if len(stack) == 0 {
						continue
					}
					wl = stack[len(stack)-1].workload
				}
				r.Emit(&Event{Type: EventPointDone, PointDone: &PointDone{
					Workload: wl, Point: "64:4,2", Miss: float64(in.byte()) / 255, Resumed: in.byte()%2 == 0,
				}})
			case 2:
				r.Emit(&Event{Type: EventShardStat, ShardStat: &ShardStat{
					Workload: wl, Shard: int(in.byte()), Refs: in.u64(), BusyMS: float64(in.byte()),
				}})
			case 3:
				r.Emit(&Event{Type: EventErrorAttributed, Error: &ErrorAttributed{
					Workload: wl, Point: in.str(), Shard: int(in.byte()%8) - 1, Cause: "cause " + in.str(),
				}})
			case 4:
				r.heartbeat()
			case 5:
				parent := ""
				if len(stack) > 0 {
					parent = stack[len(stack)-1].span.ID()
				}
				sp := StartSpan(r, Span{Name: "span", Parent: parent, Workload: wl, Detail: in.str()})
				stack = append(stack, open{sp, wl})
				spans = true
			case 6:
				if len(stack) > 0 {
					stack[len(stack)-1].span.EndErr(in.str())
					stack = stack[:len(stack)-1]
				}
			default:
				fuzzRecord(r, in, op)
			}
		}
		for i := len(stack) - 1; i >= 0; i-- {
			stack[i].span.End()
		}
		if err := r.CloseInterrupted(in.byte()%2 == 1); err != nil {
			t.Fatal(err)
		}
		st, err := ValidateStream(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("own stream rejected: %v\n%s", err, buf.String())
		}
		if st.ByType[EventRunEnd] != 1 {
			t.Fatalf("stream has %d run-end events, want 1", st.ByType[EventRunEnd])
		}
	})
}
