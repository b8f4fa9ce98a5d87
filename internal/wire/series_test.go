package wire

import (
	"encoding/binary"
	"encoding/json"
	"reflect"
	"testing"

	"dynspread/internal/sim"
)

// fabricated three-sample snapshot touching both monotone and raw columns,
// with a dropped prefix (a wrapped ring) and deliberately all-zero
// broadcast/walk columns (a unicast-shaped series).
func testSnapshot() *sim.RecorderSnapshot {
	return &sim.RecorderSnapshot{
		Stride:   4,
		Capacity: 3,
		Dropped:  2,
		Samples: []sim.RoundSample{
			{Round: 12, Messages: 40, TokenPayloads: 30, RequestPayloads: 10, Learned: 25, Arrived: 1, TC: 3, Known: 100, Promotions: 2, Nanos: 900},
			{Round: 16, Messages: 44, TokenPayloads: 34, RequestPayloads: 10, Learned: 30, TC: 0, Removals: 1, Known: 130, Nanos: 850},
			{Round: 17, Messages: 9, TokenPayloads: 9, Learned: 8, Known: 138, Demotions: 1, Nanos: 200},
		},
	}
}

func TestSeriesRoundTrip(t *testing.T) {
	snap := testSnapshot()
	s := SeriesFromSnapshot(snap)
	if s.Len() != 3 || s.Stride != 4 || s.Capacity != 3 || s.Dropped != 2 {
		t.Fatalf("series header: %+v", s)
	}
	// Monotone columns are delta-encoded with an absolute head.
	if want := []int64{12, 4, 1}; !reflect.DeepEqual(s.Rounds, want) {
		t.Fatalf("Rounds = %v, want %v", s.Rounds, want)
	}
	if want := []int64{100, 30, 8}; !reflect.DeepEqual(s.Known, want) {
		t.Fatalf("Known = %v, want %v", s.Known, want)
	}
	// All-zero columns are omitted outright.
	if s.Broadcasts != nil || s.WalkPayloads != nil || s.ControlPayloads != nil || s.CompletenessPayloads != nil {
		t.Fatalf("all-zero columns not omitted: %+v", s)
	}
	got := s.Samples()
	if !reflect.DeepEqual(got, snap.Samples) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, snap.Samples)
	}
}

// TestSeriesJSONRoundTrip: the wire trip a series actually takes — encode,
// marshal, unmarshal on the other side, decode — is lossless too, and the
// JSON form omits the absent columns.
func TestSeriesJSONRoundTrip(t *testing.T) {
	snap := testSnapshot()
	b, err := json.Marshal(SeriesFromSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"broadcasts", "walk_payloads", "control_payloads", "completeness_payloads"} {
		if _, ok := m[absent]; ok {
			t.Fatalf("all-zero column %q survived into JSON: %s", absent, b)
		}
	}
	var back RoundSeries
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.Samples(); !reflect.DeepEqual(got, snap.Samples) {
		t.Fatalf("JSON round trip mismatch:\n got %+v\nwant %+v", got, snap.Samples)
	}
}

func TestSeriesNilAndEmpty(t *testing.T) {
	if SeriesFromSnapshot(nil) != nil {
		t.Fatal("nil snapshot must encode to nil")
	}
	var nilSeries *RoundSeries
	if nilSeries.Samples() != nil || nilSeries.Len() != 0 {
		t.Fatal("nil series must decode to nil")
	}
	empty := SeriesFromSnapshot(&sim.RecorderSnapshot{Stride: 1, Capacity: 8})
	if empty.Len() != 0 {
		t.Fatalf("empty snapshot Len = %d", empty.Len())
	}
	if got := empty.Samples(); len(got) != 0 {
		t.Fatalf("empty snapshot decodes %d samples", len(got))
	}
}

// samplesFrom decodes raw into round samples, eight little-endian bytes per
// field in declaration order (a trailing partial sample is dropped), so a
// fuzzer controls every field of every sample.
func samplesFrom(raw []byte) []sim.RoundSample {
	nf := reflect.TypeOf(sim.RoundSample{}).NumField()
	out := make([]sim.RoundSample, len(raw)/(8*nf))
	for i := range out {
		v := reflect.ValueOf(&out[i]).Elem()
		for f := 0; f < nf; f++ {
			v.Field(f).SetInt(int64(binary.LittleEndian.Uint64(raw[8*(i*nf+f):])))
		}
	}
	return out
}

// FuzzRoundSeries: the series codec is exact for arbitrary samples — any
// values, non-monotone rounds, overflowing deltas, all-zero columns — and
// Samples never panics on a series decoded from arbitrary JSON, whatever its
// column lengths.
func FuzzRoundSeries(f *testing.F) {
	seed, err := json.Marshal(SeriesFromSnapshot(testSnapshot()))
	if err != nil {
		f.Fatal(err)
	}
	raw := make([]byte, 3*8*reflect.TypeOf(sim.RoundSample{}).NumField())
	for i := range raw {
		if i%5 == 0 {
			raw[i] = byte(i)
		}
	}
	f.Add(raw, seed)
	f.Add([]byte{}, []byte(`{"stride":1,"capacity":2,"rounds":[1,1],"known":[5],"messages":[1,2,3]}`))
	f.Add([]byte{0xff, 0xff}, []byte(`{"rounds":[9223372036854775807,1],"known":[-9223372036854775808,-1]}`))
	f.Fuzz(func(t *testing.T, raw, js []byte) {
		samples := samplesFrom(raw)
		got := SeriesFromSnapshot(&sim.RecorderSnapshot{Stride: 1, Capacity: len(samples), Samples: samples}).Samples()
		if len(got) != len(samples) || (len(got) > 0 && !reflect.DeepEqual(got, samples)) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, samples)
		}
		var s RoundSeries
		if json.Unmarshal(js, &s) == nil {
			if got := s.Samples(); len(got) != s.Len() {
				t.Fatalf("decoded %d samples from a series of length %d", len(got), s.Len())
			}
		}
	})
}

func TestRecordSpecValidate(t *testing.T) {
	good := []RecordSpec{{}, {Stride: 1}, {Stride: 64, Capacity: 1}, {Capacity: MaxWireRecorderCapacity}}
	for _, rs := range good {
		if err := rs.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", rs, err)
		}
	}
	bad := []RecordSpec{{Stride: -1}, {Capacity: -1}, {Stride: MaxWireRounds + 1}, {Capacity: MaxWireRecorderCapacity + 1}}
	for _, rs := range bad {
		if err := rs.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", rs)
		}
	}
}

// TestShardRequestCarriesRecord: the shard→worker hop must propagate the
// record spec, or a distributed recorded job would silently lose its series.
func TestShardRequestCarriesRecord(t *testing.T) {
	rs := &RecordSpec{Stride: 8, Capacity: 256}
	sh := ShardRequest{Shard: 0, Shards: 1, Record: rs}
	req := sh.RunRequest()
	if req.Record != rs {
		t.Fatalf("RunRequest dropped the record spec: %+v", req)
	}
}
