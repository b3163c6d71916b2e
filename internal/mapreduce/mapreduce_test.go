package mapreduce

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"csoutlier/internal/keydict"
	"csoutlier/internal/outlier"
	"csoutlier/internal/sensing"
	"csoutlier/internal/workload"
	"csoutlier/internal/xrand"
)

// buildWorkload converts a generated click-log workload into input
// splits: each data-center slice becomes raw records, shuffled and
// chunked so one DC spans several mapper splits.
func buildWorkload(t testing.TB, scale float64, splitsPerDC int, seed uint64) (*keydict.Dictionary, []Split, *workload.ClickLogs) {
	t.Helper()
	cl := workload.GenerateClickLogs(workload.ClickLogConfig{
		Query: workload.CoreSearchClicks, ScaleN: scale, Seed: seed,
	})
	dict := keydict.FromSorted(cl.Keys)
	r := xrand.New(seed + 77)
	var splits []Split
	for _, slice := range cl.Slices {
		var recs []Record
		for i, key := range cl.Keys {
			if v := slice[i]; v != 0 {
				recs = append(recs, Record{Key: key, Value: v})
			}
		}
		shuffled := make([]Record, len(recs))
		for i, j := range r.Perm(len(recs)) {
			shuffled[i] = recs[j]
		}
		recs = shuffled
		per := (len(recs) + splitsPerDC - 1) / splitsPerDC
		for off := 0; off < len(recs); off += per {
			end := off + per
			if end > len(recs) {
				end = len(recs)
			}
			chunk := recs[off:end]
			splits = append(splits, Split{Records: chunk, Bytes: int64(len(chunk)) * 40})
		}
	}
	return dict, splits, cl
}

func TestEncodingRoundTrips(t *testing.T) {
	for _, id := range []uint32{0, 1, 1 << 20, ^uint32(0)} {
		got, err := decodeKeyID(encodeKeyID(id))
		if err != nil || got != id {
			t.Fatalf("key id %d -> %d, %v", id, got, err)
		}
	}
	for _, v := range []float64{0, -1.5, math.Pi, math.Inf(1)} {
		got, err := decodeFloat(encodeFloat(v))
		if err != nil || got != v {
			t.Fatalf("float %v -> %v, %v", v, got, err)
		}
	}
	vs := []float64{1, 2, -3.5}
	got, err := decodeFloats(encodeFloats(vs))
	if err != nil || len(got) != 3 || got[2] != -3.5 {
		t.Fatalf("floats roundtrip = %v, %v", got, err)
	}
	if _, err := decodeKeyID("abc"); err == nil {
		t.Fatal("short key id accepted")
	}
	if _, err := decodeFloat([]byte{1, 2}); err == nil {
		t.Fatal("short float accepted")
	}
	if _, err := decodeFloats(make([]byte, 9)); err == nil {
		t.Fatal("ragged float vector accepted")
	}
}

func TestTopKJobAggregatesCorrectly(t *testing.T) {
	dict, splits, cl := buildWorkload(t, 0.01, 2, 1)
	out, met, err := Run(&TopKJob{Dict: dict}, splits)
	if err != nil {
		t.Fatal(err)
	}
	if met.MapTasks != len(splits) {
		t.Fatalf("metrics tasks = %+v", met)
	}
	// Every key's reduced total must equal the global aggregate.
	got := map[int]float64{}
	for _, kv := range out {
		id, err := decodeKeyID(kv.Key)
		if err != nil {
			t.Fatal(err)
		}
		v, err := decodeFloat(kv.Value)
		if err != nil {
			t.Fatal(err)
		}
		got[int(id)] += v
	}
	for i, want := range cl.Global {
		if math.Abs(got[i]-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Fatalf("key %d: reduced %v, want %v", i, got[i], want)
		}
	}
}

func TestSketchJobEndToEnd(t *testing.T) {
	const k = 5
	dict, splits, cl := buildWorkload(t, 0.05, 2, 2)
	p := sensing.Params{M: 180, N: dict.N(), Seed: 50}
	job := &SketchJob{Dict: dict, Params: p, K: k}
	out, met, err := Run(job, splits)
	if err != nil {
		t.Fatal(err)
	}
	got, mode, err := OutliersFromOutput(out, k)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mode-cl.Mode) > 0.05*math.Abs(cl.Mode) {
		t.Fatalf("mode = %v, want ≈%v", mode, cl.Mode)
	}
	truth := cl.TrueTopOutliers(k)
	if ek := outlier.ErrorOnKey(truth, got); ek > 0.21 {
		t.Fatalf("EK = %v (truth %v, got %v)", ek, truth, got)
	}
	// The headline claim: CS map output is a tiny fraction of the
	// traditional job's tuple shipping.
	outTrad, metTrad, err := Run(&TopKJob{Dict: dict}, splits)
	if err != nil {
		t.Fatal(err)
	}
	_ = outTrad
	if met.MapOutputBytes >= metTrad.MapOutputBytes {
		t.Fatalf("CS map output %d >= traditional %d", met.MapOutputBytes, metTrad.MapOutputBytes)
	}
}

func TestSketchJobMapOutputBytesExact(t *testing.T) {
	dict, splits, _ := buildWorkload(t, 0.01, 2, 3)
	p := sensing.Params{M: 60, N: dict.N(), Seed: 51}
	_, met, err := Run(&SketchJob{Dict: dict, Params: p, K: 3}, splits)
	if err != nil {
		t.Fatal(err)
	}
	// Each mapper ships one sketch of M·8 bytes plus the 3-byte key.
	want := int64(len(splits)) * (int64(p.M)*8 + int64(len(sketchKey)))
	if met.MapOutputBytes != want {
		t.Fatalf("MapOutputBytes = %d, want %d", met.MapOutputBytes, want)
	}
}

func TestSketchJobRejectsUnknownKey(t *testing.T) {
	dict := keydict.FromSorted([]string{"a"})
	p := sensing.Params{M: 4, N: 1, Seed: 1}
	splits := []Split{{Records: []Record{{Key: "zz", Value: 1}}, Bytes: 10}}
	if _, _, err := Run(&SketchJob{Dict: dict, Params: p, K: 1}, splits); err == nil {
		t.Fatal("unknown key accepted")
	}
}

type errJob struct{ onMap bool }

func (e *errJob) Map(split []Record, emit func(KV)) (int64, error) {
	if e.onMap {
		return 0, errors.New("map boom")
	}
	emit(KV{Key: "k", Value: []byte{1}})
	return 0, nil
}
func (e *errJob) Reduce(key string, values [][]byte, emit func(KV)) (int64, error) {
	return 0, errors.New("reduce boom")
}

func TestErrorPropagation(t *testing.T) {
	splits := []Split{{Records: []Record{{Key: "a", Value: 1}}, Bytes: 1}}
	if _, _, err := Run(&errJob{onMap: true}, splits); err == nil {
		t.Fatal("map error swallowed")
	}
	if _, _, err := Run(&errJob{}, splits); err == nil {
		t.Fatal("reduce error swallowed")
	}
}

func TestCostModelMonotonicInBytes(t *testing.T) {
	// More input bytes must never make the modeled job faster.
	dict, splits, _ := buildWorkload(t, 0.01, 2, 4)
	p := sensing.Params{M: 50, N: dict.N(), Seed: 52}
	run := func(mult int64) time.Duration {
		scaled := make([]Split, len(splits))
		for i, s := range splits {
			scaled[i] = Split{Records: s.Records, Bytes: s.Bytes * mult}
		}
		_, met, err := Run(&SketchJob{Dict: dict, Params: p, K: 3}, scaled)
		if err != nil {
			t.Fatal(err)
		}
		return met.EndToEnd
	}
	small, big := run(1), run(1000)
	if big <= small {
		t.Fatalf("1000x input bytes modeled faster: %v <= %v", big, small)
	}
}

// TestSketchMapDeterministic: a CS mapper measures its keys in
// canonical order, so the same split emits the same sketch bits however
// Go iterates the aggregation map.
func TestSketchMapDeterministic(t *testing.T) {
	keys := make([]string, 2000)
	split := make([]Record, len(keys))
	r := xrand.New(8)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
		split[i] = Record{Key: keys[i], Value: r.NormFloat64() * 1e3}
	}
	dict := keydict.FromSorted(keys)
	job := &SketchJob{Dict: dict, Params: sensing.Params{M: 64, N: dict.N(), Seed: 3}, K: 3}
	emitted := func() string {
		var out []byte
		if _, err := job.Map(split, func(kv KV) { out = append(out, kv.Value...) }); err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	first := emitted()
	for i := 0; i < 5; i++ {
		if emitted() != first {
			t.Fatalf("call %d emitted different sketch bytes from the same split", i+2)
		}
	}
}

// TestRunMetricsDeterministic: every modeled time is counted work or
// bytes, so two runs of one job report equal Metrics.
func TestRunMetricsDeterministic(t *testing.T) {
	dict, splits, _ := buildWorkload(t, 0.05, 2, 7)
	p := sensing.Params{M: 120, N: dict.N(), Seed: 53}
	var first *Metrics
	for i := 0; i < 3; i++ {
		_, met, err := Run(&SketchJob{Dict: dict, Params: p, K: 5}, splits)
		if err != nil {
			t.Fatal(err)
		}
		if met.MapCPU <= 0 || met.ReduceCPU <= 0 {
			t.Fatalf("no CPU charged: %+v", met)
		}
		if first == nil {
			first = met
		} else if *met != *first {
			t.Fatalf("run %d metrics %+v, want %+v", i+1, *met, *first)
		}
	}
}

func TestScheduleWaves(t *testing.T) {
	// 4 equal tasks on 2 slots = 2 waves.
	tasks := []time.Duration{time.Second, time.Second, time.Second, time.Second}
	if got := scheduleWaves(tasks, 2); got != 2*time.Second {
		t.Fatalf("scheduleWaves = %v, want 2s", got)
	}
	// One giant task dominates regardless of slots.
	tasks = []time.Duration{10 * time.Second, time.Second}
	if got := scheduleWaves(tasks, 8); got != 10*time.Second {
		t.Fatalf("scheduleWaves = %v, want 10s", got)
	}
	if got := scheduleWaves(nil, 4); got != 0 {
		t.Fatalf("empty scheduleWaves = %v", got)
	}
	// Slot count must help: same tasks, more slots, no slower.
	tasks = []time.Duration{3 * time.Second, 2 * time.Second, 2 * time.Second, time.Second}
	if scheduleWaves(tasks, 4) > scheduleWaves(tasks, 2) {
		t.Fatal("more slots made schedule slower")
	}
}

func TestDeterministicOutputOrder(t *testing.T) {
	dict, splits, _ := buildWorkload(t, 0.01, 2, 6)
	out1, _, err := Run(&TopKJob{Dict: dict}, splits)
	if err != nil {
		t.Fatal(err)
	}
	out2, _, err := Run(&TopKJob{Dict: dict}, splits)
	if err != nil {
		t.Fatal(err)
	}
	if len(out1) != len(out2) {
		t.Fatal("nondeterministic output size")
	}
	for i := range out1 {
		if out1[i].Key != out2[i].Key {
			t.Fatalf("output order differs at %d", i)
		}
	}
}
