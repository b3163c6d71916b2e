package mapreduce

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"csoutlier/internal/keydict"
	"csoutlier/internal/linalg"
	"csoutlier/internal/outlier"
	"csoutlier/internal/recovery"
	"csoutlier/internal/sensing"
)

// Tuple encoding: intermediate keys are 4-byte big-endian key ids and
// values are 8-byte little-endian float64s, so one aggregated tuple
// costs exactly the paper's S_t = 12 bytes on the wire.

func encodeKeyID(id uint32) string {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], id)
	return string(b[:])
}

func decodeKeyID(s string) (uint32, error) {
	if len(s) != 4 {
		return 0, fmt.Errorf("mapreduce: key id has %d bytes, want 4", len(s))
	}
	return binary.BigEndian.Uint32([]byte(s)), nil
}

func encodeFloat(v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return b[:]
}

func decodeFloat(b []byte) (float64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("mapreduce: float value has %d bytes, want 8", len(b))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

func encodeFloats(vs []float64) []byte {
	b := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return b
}

func decodeFloats(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("mapreduce: float vector has %d bytes", len(b))
	}
	vs := make([]float64, len(b)/8)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return vs, nil
}

// localAggregate sums the split's records per dictionary position — the
// partial aggregation both mappers share (paper Figure 2 / Algorithm 3).
func localAggregate(dict *keydict.Dictionary, split []Record) (map[uint32]float64, error) {
	agg := make(map[uint32]float64)
	for _, rec := range split {
		i, ok := dict.Index(rec.Key)
		if !ok {
			return nil, fmt.Errorf("mapreduce: record key %q not in global key list", rec.Key)
		}
		agg[uint32(i)] += rec.Value
	}
	return agg, nil
}

// TopKJob is the traditional distributed top-k aggregation the paper
// benchmarks against in §6.2: mappers partially aggregate and ship every
// distinct (key, partial-sum) tuple; reducers sum per key. The driver
// extracts the top k afterwards with TopKFromOutput.
type TopKJob struct {
	Dict *keydict.Dictionary
}

// Map implements Job.
func (j *TopKJob) Map(split []Record, emit func(KV)) error {
	agg, err := localAggregate(j.Dict, split)
	if err != nil {
		return err
	}
	for id, sum := range agg {
		emit(KV{Key: encodeKeyID(id), Value: encodeFloat(sum)})
	}
	return nil
}

// Reduce implements Job.
func (j *TopKJob) Reduce(key string, values [][]byte, emit func(KV)) error {
	total := 0.0
	for _, v := range values {
		f, err := decodeFloat(v)
		if err != nil {
			return err
		}
		total += f
	}
	emit(KV{Key: key, Value: encodeFloat(total)})
	return nil
}

// TopKFromOutput decodes reducer output and returns the k entries with
// the largest |value| (the mode-0 outlier ranking the paper uses when
// comparing against its own method).
func TopKFromOutput(out []KV, k int) ([]outlier.KV, error) {
	kvs := make([]outlier.KV, 0, len(out))
	for _, kv := range out {
		id, err := decodeKeyID(kv.Key)
		if err != nil {
			return nil, err
		}
		v, err := decodeFloat(kv.Value)
		if err != nil {
			return nil, err
		}
		kvs = append(kvs, outlier.KV{Index: int(id), Value: v})
	}
	return outlier.TopKOf(kvs, 0, k), nil
}

// sketchKey is the single intermediate key of the CS job: every mapper's
// measurement lands on one reducer, which is exactly the paper's design
// (the aggregator is a single node).
const sketchKey = "\x00CS"

// SketchJob is the paper's Hadoop integration (§5, Algorithms 3–4):
// CS-Mapper partially aggregates, vectorizes against the global key
// list, measures with the consensus matrix, and ships the M-vector;
// CS-Reducer sums the measurements and recovers the k outliers and the
// mode with BOMP.
type SketchJob struct {
	Dict   *keydict.Dictionary
	Params sensing.Params
	K      int
	// MaxIterations overrides the R = f(K) default (0 = use default).
	MaxIterations int
	// DenseLimit caps M·N for materializing Φ₀; above it mappers and the
	// reducer fall back to the column-regenerating representation
	// (every real Hadoop mapper regenerates anyway — sharing one dense
	// matrix across this simulation's in-process mappers is free).
	// 0 means sensing.New's default, 4e7 entries (320 MB).
	DenseLimit int64

	matOnce sync.Once
	mat     sensing.Matrix
	matErr  error
}

// Map implements Job (CS-Mapper, Algorithm 3).
func (j *SketchJob) Map(split []Record, emit func(KV)) error {
	agg, err := localAggregate(j.Dict, split)
	if err != nil {
		return err
	}
	idx := make([]int, 0, len(agg))
	vals := make([]float64, 0, len(agg))
	for id, sum := range agg {
		idx = append(idx, int(id))
		vals = append(vals, sum)
	}
	m, err := j.recoveryMatrix()
	if err != nil {
		return err
	}
	y := m.MeasureSparse(idx, vals, nil)
	emit(KV{Key: sketchKey, Value: encodeFloats(y)})
	return nil
}

// Reduce implements Job (CS-Reducer, Algorithm 4). Output tuples are the
// detected outliers as (key id, recovered value), plus a mode tuple
// under key id 2³²−1.
const modeKeyID = ^uint32(0)

// Reduce implements Job.
func (j *SketchJob) Reduce(key string, values [][]byte, emit func(KV)) error {
	if key != sketchKey {
		return fmt.Errorf("mapreduce: CS reducer got unexpected key %q", key)
	}
	global := make(linalg.Vector, j.Params.M)
	for _, v := range values {
		y, err := decodeFloats(v)
		if err != nil {
			return err
		}
		if len(y) != j.Params.M {
			return fmt.Errorf("mapreduce: sketch length %d, want M=%d", len(y), j.Params.M)
		}
		sensing.AddSketch(global, linalg.Vector(y))
	}
	mat, err := j.recoveryMatrix()
	if err != nil {
		return err
	}
	iters := j.MaxIterations
	if iters == 0 {
		iters = recovery.IterationBudget(j.K)
	}
	res, err := recovery.BOMP(mat, global, recovery.Options{MaxIterations: iters})
	if err != nil {
		return err
	}
	cands := make([]outlier.KV, len(res.Support))
	for i, jx := range res.Support {
		cands[i] = outlier.KV{Index: jx, Value: res.X[jx]}
	}
	for _, kv := range outlier.TopKOf(cands, res.Mode, j.K) {
		emit(KV{Key: encodeKeyID(uint32(kv.Index)), Value: encodeFloat(kv.Value)})
	}
	emit(KV{Key: encodeKeyID(modeKeyID), Value: encodeFloat(res.Mode)})
	return nil
}

func (j *SketchJob) recoveryMatrix() (sensing.Matrix, error) {
	j.matOnce.Do(func() {
		j.mat, j.matErr = sensing.New(sensing.GaussianSpec(j.Params), j.DenseLimit)
	})
	return j.mat, j.matErr
}

// OutliersFromOutput decodes the CS reducer's output into the detected
// outliers (strongest first, mode tuple stripped) and the mode.
func OutliersFromOutput(out []KV, k int) ([]outlier.KV, float64, error) {
	var mode float64
	kvs := make([]outlier.KV, 0, len(out))
	for _, kv := range out {
		id, err := decodeKeyID(kv.Key)
		if err != nil {
			return nil, 0, err
		}
		v, err := decodeFloat(kv.Value)
		if err != nil {
			return nil, 0, err
		}
		if id == modeKeyID {
			mode = v
			continue
		}
		kvs = append(kvs, outlier.KV{Index: int(id), Value: v})
	}
	return outlier.TopKOf(kvs, mode, k), mode, nil
}
