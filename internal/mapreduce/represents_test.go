package mapreduce

import "testing"

// countJob emits one fixed tuple per Map call.
type countJob struct{}

func (countJob) Map(split []Record, emit func(KV)) (int64, error) {
	emit(KV{Key: "kkkk", Value: []byte{1, 2, 3, 4, 5, 6, 7, 8}})
	return 0, nil
}
func (countJob) Reduce(key string, values [][]byte, emit func(KV)) (int64, error) {
	emit(KV{Key: key, Value: []byte{byte(len(values))}})
	return 0, nil
}

func TestRepresentsScalesVolumes(t *testing.T) {
	base := []Split{{Records: []Record{{Key: "a", Value: 1}}, Bytes: 1000, Represents: 1}}
	scaled := []Split{{Records: []Record{{Key: "a", Value: 1}}, Bytes: 1000, Represents: 7}}
	_, m1, err := Run(countJob{}, base)
	if err != nil {
		t.Fatal(err)
	}
	_, m7, err := Run(countJob{}, scaled)
	if err != nil {
		t.Fatal(err)
	}
	if m7.MapTasks != 7 || m1.MapTasks != 1 {
		t.Fatalf("MapTasks = %d / %d", m1.MapTasks, m7.MapTasks)
	}
	if m7.MapOutputBytes != 7*m1.MapOutputBytes {
		t.Fatalf("MapOutputBytes = %d, want 7×%d", m7.MapOutputBytes, m1.MapOutputBytes)
	}
	if m7.MapOutputTuples != 7*m1.MapOutputTuples {
		t.Fatalf("MapOutputTuples = %d, want 7×%d", m7.MapOutputTuples, m1.MapOutputTuples)
	}
	// Total charged input is the split's Bytes either way.
	if m1.InputBytes != 1000 || m7.InputBytes != 1000 {
		t.Fatalf("InputBytes = %d / %d", m1.InputBytes, m7.InputBytes)
	}
	// 41 modeled tasks on the 20 map slots run in three waves, each
	// paying the task overhead.
	waves := []Split{{Records: []Record{{Key: "a", Value: 1}}, Bytes: 1000, Represents: 41}}
	_, m41, err := Run(countJob{}, waves)
	if err != nil {
		t.Fatal(err)
	}
	if m41.MapTime < 3*taskOverhead || m1.MapTime >= 2*taskOverhead {
		t.Fatalf("map time %v for 41 tasks, %v for 1: want three waves against one", m41.MapTime, m1.MapTime)
	}
}

func TestRepresentsDefaultsToOne(t *testing.T) {
	s := Split{Bytes: 10}
	if s.represents() != 1 {
		t.Fatalf("represents() = %d", s.represents())
	}
	s.Represents = -3
	if s.represents() != 1 {
		t.Fatalf("negative represents() = %d", s.represents())
	}
}

func TestReduceSideScalesWithMultiplicity(t *testing.T) {
	// Reduce merge volume scales by the tuple multiplicity, inflating
	// the modeled reduce time.
	mk := func(rep int) *Metrics {
		splits := []Split{{Records: []Record{{Key: "a", Value: 1}}, Bytes: 100, Represents: rep}}
		_, met, err := Run(countJob{}, splits)
		if err != nil {
			t.Fatal(err)
		}
		return met
	}
	small, big := mk(1), mk(50)
	if big.ReduceTime <= small.ReduceTime {
		t.Fatalf("reduce time did not scale: %v vs %v", small.ReduceTime, big.ReduceTime)
	}
	if big.ShuffleTime <= small.ShuffleTime {
		t.Fatalf("shuffle time did not scale: %v vs %v", small.ShuffleTime, big.ShuffleTime)
	}
}
