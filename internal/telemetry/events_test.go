package telemetry

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// sampleEvents returns one well-formed event of every type, as a
// recorder would emit them.
func sampleEvents() []*Event {
	return []*Event{
		{V: SchemaVersion, Type: EventRunStart, Seq: 0, ElapsedMS: 1, RunStart: &RunStart{
			Arch: "PDP-11", Engine: "multipass", Shards: 8, Points: 19, Workloads: 6, Refs: 10000, Checkpoint: true}},
		{V: SchemaVersion, Type: EventPointDone, Seq: 1, ElapsedMS: 2, PointDone: &PointDone{
			Workload: "FGO1", Point: "1024:16,8", Miss: 0.052, Traffic: 0.206}},
		{V: SchemaVersion, Type: EventShardStat, Seq: 2, ElapsedMS: 3, ShardStat: &ShardStat{
			Workload: "FGO1", Shard: 3, Units: 2, Lanes: 9, EstCost: 11, Refs: 8192, BusyMS: 1.5}},
		{V: SchemaVersion, Type: EventErrorAttributed, Seq: 3, ElapsedMS: 4, Error: &ErrorAttributed{
			Workload: "EDC", Point: "64:4,2", Shard: 1, Cause: "panic: injected", Panic: true}},
		{V: SchemaVersion, Type: EventHeartbeat, Seq: 4, ElapsedMS: 5, Heartbeat: &Heartbeat{
			Snapshot: &Snapshot{Counters: map[string]uint64{"refs_read": 42}}}},
	}
}

// TestEventRoundTrip: every event type survives JSON marshal/unmarshal
// exactly and validates on both sides of the trip.
func TestEventRoundTrip(t *testing.T) {
	for _, ev := range sampleEvents() {
		if err := ev.Validate(); err != nil {
			t.Fatalf("%s: invalid before marshal: %v", ev.Type, err)
		}
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("%s: marshal: %v", ev.Type, err)
		}
		var got Event
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("%s: unmarshal: %v", ev.Type, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: invalid after round trip: %v", ev.Type, err)
		}
		if !reflect.DeepEqual(&got, ev) {
			t.Errorf("%s: round trip changed the event\n got:  %+v\n want: %+v", ev.Type, &got, ev)
		}
	}
}

// TestEventValidateRejects: schema violations are caught, with enough
// context to find the offending event.
func TestEventValidateRejects(t *testing.T) {
	pd := &PointDone{Workload: "FGO1", Point: "64:4,2"}
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"wrong version", Event{V: 99, Type: EventPointDone, PointDone: pd}, "version"},
		{"no payload", Event{V: SchemaVersion, Type: EventPointDone}, "payloads"},
		{"two payloads", Event{V: SchemaVersion, Type: EventPointDone, PointDone: pd,
			Heartbeat: &Heartbeat{Snapshot: &Snapshot{}}}, "payloads"},
		{"type-payload mismatch", Event{V: SchemaVersion, Type: EventRunStart, PointDone: pd}, "payload"},
		{"unknown type", Event{V: SchemaVersion, Type: "nonsense", PointDone: pd}, "unknown type"},
		{"negative elapsed", Event{V: SchemaVersion, Type: EventPointDone, ElapsedMS: -1, PointDone: pd}, "elapsed"},
		{"empty workload", Event{V: SchemaVersion, Type: EventPointDone,
			PointDone: &PointDone{Point: "64:4,2"}}, "workload"},
		{"run-start missing fields", Event{V: SchemaVersion, Type: EventRunStart,
			RunStart: &RunStart{Arch: "PDP-11"}}, "run-start"},
		{"error shard below -1", Event{V: SchemaVersion, Type: EventErrorAttributed,
			Error: &ErrorAttributed{Workload: "W", Cause: "x", Shard: -2}}, "shard"},
		{"heartbeat nil snapshot", Event{V: SchemaVersion, Type: EventHeartbeat,
			Heartbeat: &Heartbeat{}}, "snapshot"},
	}
	for _, tc := range cases {
		err := tc.ev.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateStream: a well-formed JSONL stream passes with the right
// per-type tallies; corrupt lines and sequence regressions are rejected
// with their line number.
func TestValidateStream(t *testing.T) {
	var sb strings.Builder
	for _, ev := range sampleEvents() {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		sb.Write(b)
		sb.WriteByte('\n')
	}
	sb.WriteString("\n") // blank lines are fine

	st, err := ValidateStream(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	if st.Events != 5 {
		t.Errorf("Events = %d, want 5", st.Events)
	}
	for _, typ := range []string{EventRunStart, EventPointDone, EventShardStat, EventErrorAttributed, EventHeartbeat} {
		if st.ByType[typ] != 1 {
			t.Errorf("ByType[%s] = %d, want 1", typ, st.ByType[typ])
		}
	}

	bad := []struct {
		name, stream, want string
	}{
		{"corrupt json", "{not json\n", "line 1"},
		{"schema violation", `{"v":2,"type":"point-done","seq":0}` + "\n", "line 1"},
		{"seq regression", `{"v":2,"type":"point-done","seq":5,"elapsed_ms":0,"point_done":{"workload":"W","point":"64:4,2"}}` + "\n" +
			`{"v":2,"type":"point-done","seq":5,"elapsed_ms":0,"point_done":{"workload":"W","point":"64:4,2"}}` + "\n", "line 2"},
	}
	for _, tc := range bad {
		if _, err := ValidateStream(strings.NewReader(tc.stream)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestJSONLSinkLatchesAfterClose: a closed sink rejects writes instead
// of panicking on a closed file, and the failure is reported (the
// recorder turns it into EventsDropped).
func TestJSONLSinkLatchesAfterClose(t *testing.T) {
	var sb strings.Builder
	s := NewJSONLSink(&sb)
	ev := sampleEvents()[1]
	if err := s.Write(ev); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.Write(ev); err == nil {
		t.Error("write after close succeeded")
	}
	st, err := ValidateStream(strings.NewReader(sb.String()))
	if err != nil || st.Events != 1 {
		t.Errorf("flushed stream: %d events, err %v", st.Events, err)
	}
}
