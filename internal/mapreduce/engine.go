// Package mapreduce is a miniature MapReduce engine standing in for the
// Hadoop 2.4.0 deployment of the paper's §5–§6.2, plus the two jobs that
// section compares: the traditional top-k aggregation job and the
// compressive-sensing job (CS-Mapper / CS-Reducer, Algorithms 3 and 4).
//
// The engine is real where it matters and modeled where it cannot be:
// map functions, the shuffle, and the one reduce task actually execute
// (mappers on a goroutine worker pool) with exact byte accounting of
// every emitted tuple, while CPU, disk and network time are modeled. CPU
// is counted work (records aggregated, values merged, multiply-adds)
// times two fitted constants; disk and network time come from the byte
// counts through constants of the paper's testbed (10 nodes, 1 Gbps). Every modeled time is therefore a function of the
// input. DESIGN.md §1 documents why this substitution preserves the
// Figure 10–12 crossover behaviour.
package mapreduce

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

// The CPU a task is charged is its counted work times these constants,
// fitted once by least squares on relative error to the CPU of every
// task measured on the Figs 10–12 sweeps at scale 0.15 (EXPERIMENTS.md
// pr39).
const (
	// recordNs is the CPU per record a mapper aggregates and per value a
	// reducer merges.
	recordNs = 237.9
	// mulAddNs is the CPU per multiply-add a job reports: a mapper's
	// measurement, a reducer's sketch sum and its recovery's correlations.
	mulAddNs = 1.211
)

// workCPU charges a task for the records it handled and the
// multiply-adds it did.
func workCPU(records int, mulAdds int64) time.Duration {
	return time.Duration(float64(records)*recordNs + float64(mulAdds)*mulAddNs)
}

// Record is one input line: a raw key with a click score.
type Record struct {
	Key   string
	Value float64
}

// KV is an intermediate or output tuple. Wire size is
// len(Key) + len(Value) bytes, so jobs control their own tuple cost
// (the paper's S_t = 12 bytes: a 4-byte key id plus an 8-byte value).
type KV struct {
	Key   string
	Value []byte
}

func (kv KV) wireBytes() int64 { return int64(len(kv.Key) + len(kv.Value)) }

// Job is a MapReduce program. Each call returns the multiply-adds it
// did; the engine counts the records and values itself.
type Job interface {
	// Map consumes one input split and emits intermediate tuples.
	Map(split []Record, emit func(KV)) (mulAdds int64, err error)
	// Reduce consumes all tuples of one key and emits output tuples.
	Reduce(key string, values [][]byte, emit func(KV)) (mulAdds int64, err error)
}

// The modeled cluster is the paper's testbed (§6.2): 10 nodes with 2 map
// slots each, a 1 Gbps network, HDD-class sequential disk and
// Hadoop-2-era container start-up.
const (
	// mapSlots gates the modeled wave schedule of the map phase; real
	// execution runs GOMAXPROCS tasks at a time.
	mapSlots = 20
	// diskBandwidth is the sequential HDD throughput (bytes/s) of input
	// reads, map-output spills and reduce-side merge reads.
	diskBandwidth = 120e6
	// netBandwidth is the shuffle throughput (bytes/s).
	netBandwidth = 125e6
	// taskOverhead is the per-task scheduling and JVM start-up cost.
	taskOverhead = 1500 * time.Millisecond
	// parseRate is the mapper's record parse and aggregate throughput
	// (bytes/s), charged against each split's simulated Bytes: the part
	// of map CPU that scales with input volume even when the split's
	// Records are a sampled stand-in for a larger file. The counted map
	// CPU (aggregation of the sample, measurement) is added on top.
	parseRate = 250e6
	// tupleCPU is the per-intermediate-tuple CPU: Hadoop's map-output
	// collector, sort, spill-merge and reduce-side merge cost about a
	// microsecond per record, which is what makes shipping N·L tuples
	// expensive beyond their raw bytes.
	tupleCPU = time.Microsecond
	// mergePasses is how often reduce-side input crosses the local disk
	// during the external merge sort.
	mergePasses = 2
)

// Metrics reports what a job did, plus the modeled Hadoop timing.
type Metrics struct {
	MapTasks int

	InputBytes      int64 // bytes charged for reading the input splits
	MapOutputBytes  int64 // bytes emitted by mappers = spill = shuffle volume
	MapOutputTuples int64 // tuples emitted by mappers
	OutputBytes     int64 // bytes emitted by the reducer

	MapCPU    time.Duration // counted mapper work plus the parse and tuple charges
	ReduceCPU time.Duration // counted reducer work

	MapTime     time.Duration // modeled map-phase wall clock
	ShuffleTime time.Duration // modeled shuffle
	ReduceTime  time.Duration // modeled reduce-phase wall clock
	EndToEnd    time.Duration // MapTime + ShuffleTime + ReduceTime
}

// Split is one input split: its records plus the byte size the cost
// model charges for reading it (a split can stand in for a much larger
// file region than its sampled Records — see parseRate).
//
// Represents scales one sampled split up to many physical map tasks:
// a real Hadoop job over a 600 GB input runs ~2300 block-sized mappers,
// each emitting its own partially aggregated tuple set — the total
// shuffle volume scales with the mapper count, which is exactly why the
// paper's savings grow with input size (§5). With Represents = R, the
// engine models R identical tasks of Bytes/R input each, every one
// emitting this split's sampled map output; the Records are executed
// once for real. 0 or 1 means a plain split.
type Split struct {
	Records    []Record
	Bytes      int64
	Represents int
}

func (s Split) represents() int {
	if s.Represents < 1 {
		return 1
	}
	return s.Represents
}

// Run executes the job over the splits on the modeled cluster and
// returns the reducer's output sorted by key, with metrics. There is one
// reducer: a global top-k needs every partial sum on one node, and the
// paper's Figure 11 breakdown (reducer time dominating and growing with
// input) shows exactly this funnel.
func Run(job Job, splits []Split) ([]KV, *Metrics, error) {
	met := &Metrics{}

	// --- Map phase: real execution on a worker pool, counted CPU. ---
	type mapOut struct {
		kvs      []KV
		cpu      time.Duration
		outBytes int64
		err      error
	}
	outs := make([]mapOut, len(splits))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, sp := range splits {
		met.InputBytes += sp.Bytes
		wg.Add(1)
		go func(i int, sp Split) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var kvs []KV
			var bytes int64
			mulAdds, err := job.Map(sp.Records, func(kv KV) {
				kvs = append(kvs, kv)
				bytes += kv.wireBytes()
			})
			outs[i] = mapOut{kvs: kvs, cpu: workCPU(len(sp.Records), mulAdds), outBytes: bytes, err: err}
		}(i, sp)
	}
	wg.Wait()

	// Modeled map-phase time: tasks scheduled in waves over mapSlots;
	// each task pays input read + CPU + spill write + startup overhead.
	// A split with Represents = R contributes R identical tasks of
	// Bytes/R input each.
	var mapTaskTimes []time.Duration
	var sampledTuples int64
	for i, o := range outs {
		if o.err != nil {
			return nil, nil, fmt.Errorf("mapreduce: map task %d: %w", i, o.err)
		}
		rep := splits[i].represents()
		perTaskBytes := float64(splits[i].Bytes) / float64(rep)
		cpu := o.cpu + seconds(perTaskBytes/parseRate)
		cpu += time.Duration(len(o.kvs)) * tupleCPU // map-side sort/spill
		met.MapCPU += time.Duration(rep) * cpu
		met.MapOutputBytes += int64(rep) * o.outBytes
		met.MapOutputTuples += int64(rep) * int64(len(o.kvs))
		sampledTuples += int64(len(o.kvs))
		io := seconds(perTaskBytes/diskBandwidth) +
			seconds(float64(o.outBytes)/diskBandwidth)
		task := taskOverhead + cpu + io
		for r := 0; r < rep; r++ {
			mapTaskTimes = append(mapTaskTimes, task)
		}
		met.MapTasks += rep
	}
	met.MapTime = scheduleWaves(mapTaskTimes, mapSlots)

	// Reduce-side volumes scale by the same multiplicity: every modeled
	// map task ships (a copy of) its sampled output.
	tupleScale := 1.0
	if sampledTuples > 0 {
		tupleScale = float64(met.MapOutputTuples) / float64(sampledTuples)
	}

	// --- Shuffle: group by key. Real movement of the tuples; modeled
	// network time from the exact byte volume. ---
	groups := make(map[string][][]byte)
	var inBytes, inTuples int64
	for _, o := range outs {
		for _, kv := range o.kvs {
			groups[kv.Key] = append(groups[kv.Key], kv.Value)
			inBytes += kv.wireBytes()
			inTuples++
		}
	}
	met.ShuffleTime = seconds(float64(met.MapOutputBytes) / netBandwidth)

	// --- Reduce phase: real execution, counted CPU. ---
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var outputs []KV
	var mulAdds int64
	for _, k := range keys {
		n, err := job.Reduce(k, groups[k], func(kv KV) {
			outputs = append(outputs, kv)
			met.OutputBytes += kv.wireBytes()
		})
		if err != nil {
			return nil, nil, fmt.Errorf("mapreduce: reduce task: %w", err)
		}
		mulAdds += n
	}
	met.ReduceCPU = workCPU(int(inTuples), mulAdds)
	// Reduce-side IO and merge CPU over the multiplicity-scaled input:
	// the external merge crosses local disk mergePasses times before the
	// reduce function sees the stream.
	scaledIn := float64(inBytes) * tupleScale
	io := seconds(mergePasses*scaledIn/diskBandwidth) +
		seconds(float64(met.OutputBytes)/diskBandwidth)
	merge := time.Duration(float64(inTuples) * tupleScale * float64(tupleCPU))
	met.ReduceTime = taskOverhead + met.ReduceCPU + merge + io
	met.EndToEnd = met.MapTime + met.ShuffleTime + met.ReduceTime

	sort.Slice(outputs, func(i, j int) bool { return outputs[i].Key < outputs[j].Key })
	return outputs, met, nil
}

// scheduleWaves models a slot-limited scheduler: tasks are placed
// longest-first onto the least-loaded of `slots` slots (LPT); the phase
// ends when the last slot drains. This mirrors how a Hadoop phase's wall
// clock is governed by task waves rather than the sum of task times.
func scheduleWaves(tasks []time.Duration, slots int) time.Duration {
	if len(tasks) == 0 {
		return 0
	}
	if slots < 1 {
		slots = 1
	}
	sorted := append([]time.Duration(nil), tasks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	load := make([]time.Duration, slots)
	for _, t := range sorted {
		load[slices.Index(load, slices.Min(load))] += t // the least-loaded slot
	}
	return slices.Max(load)
}

func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
