// Package mapreduce is a miniature MapReduce engine standing in for the
// Hadoop 2.4.0 deployment of the paper's §5–§6.2, plus the two jobs that
// section compares: the traditional top-k aggregation job and the
// compressive-sensing job (CS-Mapper / CS-Reducer, Algorithms 3 and 4).
//
// The engine is real where it matters and modeled where it cannot be:
// map functions, the hash shuffle, and reduce functions actually execute
// on a goroutine worker pool with exact byte accounting of every emitted
// tuple, while CPU, disk and network time are modeled. CPU is counted
// work (records aggregated, values merged, multiply-adds) times two
// fitted constants; disk and network time come from the byte counts
// through an explicit CostModel calibrated to the paper's testbed (10
// nodes, 1 Gbps). Every modeled time is therefore a function of the
// input. DESIGN.md §1 documents why this substitution preserves the
// Figure 10–12 crossover behaviour.
package mapreduce

import (
	"fmt"
	"hash/fnv"
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

// CostModel converts byte counts into simulated wall-clock time.
type CostModel struct {
	// DiskBandwidth is the sequential HDD throughput used for input
	// reads, map-output spills and reduce-side merge reads (bytes/s).
	DiskBandwidth float64
	// NetBandwidth is the shuffle throughput (bytes/s).
	NetBandwidth float64
	// TaskOverhead is the per-task scheduling/JVM-startup cost.
	TaskOverhead time.Duration
	// TupleCPU is the per-intermediate-tuple CPU charge (seconds):
	// Hadoop's map-output collector, sort, spill-merge and reduce-side
	// merge cost a few microseconds per record, which is what makes
	// shipping N·L tuples expensive beyond their raw bytes.
	TupleCPU time.Duration
	// ParseRate is the mapper's record parse/aggregate CPU throughput
	// (bytes/s) charged against each split's simulated Bytes — the part
	// of map CPU that scales with input volume even when the split's
	// Records are a sampled stand-in for a larger file. The counted map
	// CPU (aggregation of the sample, measurement) is added on top.
	// 0 disables the charge.
	ParseRate float64
	// MergePasses is the number of times reduce-side input crosses the
	// local disk during the external merge sort (Hadoop typically reads
	// fetched map output back at least twice). 0 means 2.
	MergePasses int
}

// DefaultHadoopCostModel matches the paper's testbed: 1 Gbps network
// (§6.2), HDD-class sequential disk, Hadoop-2-era container startup.
func DefaultHadoopCostModel() CostModel {
	return CostModel{
		DiskBandwidth: 120e6, // 120 MB/s sequential HDD
		NetBandwidth:  125e6, // 1 Gbps
		TaskOverhead:  1500 * time.Millisecond,
		ParseRate:     250e6,            // text parse + hash aggregate
		TupleCPU:      time.Microsecond, // collector+sort+merge+reduce iterator, per record
		MergePasses:   2,
	}
}

// Config describes the simulated cluster.
type Config struct {
	// Reducers is the number of reduce partitions (Hadoop: job setting).
	Reducers int
	// MapSlots / ReduceSlots are the concurrent task slots of the
	// simulated cluster (10 nodes in the paper). They gate the *modeled*
	// wave schedule; real execution runs GOMAXPROCS tasks at a time.
	MapSlots, ReduceSlots int
	Cost                  CostModel
}

func (c *Config) normalize() {
	if c.Reducers <= 0 {
		c.Reducers = 1
	}
	if c.MapSlots <= 0 {
		c.MapSlots = 10
	}
	if c.ReduceSlots <= 0 {
		c.ReduceSlots = c.Reducers
	}
	if c.Cost.DiskBandwidth <= 0 || c.Cost.NetBandwidth <= 0 {
		def := DefaultHadoopCostModel()
		if c.Cost.DiskBandwidth <= 0 {
			c.Cost.DiskBandwidth = def.DiskBandwidth
		}
		if c.Cost.NetBandwidth <= 0 {
			c.Cost.NetBandwidth = def.NetBandwidth
		}
	}
}

// Metrics reports what a job did, plus the modeled Hadoop timing.
type Metrics struct {
	MapTasks, ReduceTasks int

	InputBytes      int64 // bytes charged for reading the input splits
	MapOutputBytes  int64 // bytes emitted by mappers = spill = shuffle volume
	MapOutputTuples int64 // tuples emitted by mappers
	OutputBytes     int64 // bytes emitted by reducers

	MapCPU    time.Duration // counted mapper work plus the parse and tuple charges
	ReduceCPU time.Duration // counted reducer work

	MapTime     time.Duration // modeled map-phase wall clock
	ShuffleTime time.Duration // modeled shuffle
	ReduceTime  time.Duration // modeled reduce-phase wall clock
	EndToEnd    time.Duration // MapTime + ShuffleTime + ReduceTime
}

// Split is one input split: its records plus the byte size the cost
// model charges for reading it (a split can stand in for a much larger
// file region than its sampled Records — see CostModel.ParseRate).
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

// Run executes the job over the splits and returns the reducer outputs
// sorted by key, with metrics.
func Run(job Job, splits []Split, cfg Config) ([]KV, *Metrics, error) {
	cfg.normalize()
	met := &Metrics{ReduceTasks: cfg.Reducers}

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

	// Modeled map-phase time: tasks scheduled in waves over MapSlots;
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
		cpu := o.cpu
		if cfg.Cost.ParseRate > 0 {
			cpu += seconds(perTaskBytes / cfg.Cost.ParseRate)
		}
		cpu += time.Duration(len(o.kvs)) * cfg.Cost.TupleCPU // map-side sort/spill
		met.MapCPU += time.Duration(rep) * cpu
		met.MapOutputBytes += int64(rep) * o.outBytes
		met.MapOutputTuples += int64(rep) * int64(len(o.kvs))
		sampledTuples += int64(len(o.kvs))
		io := seconds(perTaskBytes/cfg.Cost.DiskBandwidth) +
			seconds(float64(o.outBytes)/cfg.Cost.DiskBandwidth)
		task := cfg.Cost.TaskOverhead + cpu + io
		for r := 0; r < rep; r++ {
			mapTaskTimes = append(mapTaskTimes, task)
		}
		met.MapTasks += rep
	}
	met.MapTime = scheduleWaves(mapTaskTimes, cfg.MapSlots)

	// Reduce-side volumes scale by the same multiplicity: every modeled
	// map task ships (a copy of) its sampled output.
	tupleScale := 1.0
	if sampledTuples > 0 {
		tupleScale = float64(met.MapOutputTuples) / float64(sampledTuples)
	}

	// --- Shuffle: hash partition, then group by key. Real movement of
	// the tuples; modeled network time from the exact byte volume. ---
	parts := make([]map[string][][]byte, cfg.Reducers)
	for p := range parts {
		parts[p] = make(map[string][][]byte)
	}
	for _, o := range outs {
		for _, kv := range o.kvs {
			p := partition(kv.Key, cfg.Reducers)
			parts[p][kv.Key] = append(parts[p][kv.Key], kv.Value)
		}
	}
	met.ShuffleTime = seconds(float64(met.MapOutputBytes) / cfg.Cost.NetBandwidth)

	// --- Reduce phase: real execution, one task per partition, counted
	// CPU. ---
	type redOut struct {
		kvs      []KV
		cpu      time.Duration
		inBytes  int64
		inTuples int64
		outBytes int64
		err      error
	}
	routs := make([]redOut, cfg.Reducers)
	for p := 0; p < cfg.Reducers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			keys := make([]string, 0, len(parts[p]))
			var inBytes, inTuples int64
			for k, vs := range parts[p] {
				keys = append(keys, k)
				for _, v := range vs {
					inBytes += int64(len(k) + len(v))
					inTuples++
				}
			}
			sort.Strings(keys)
			var kvs []KV
			var outBytes, mulAdds int64
			for _, k := range keys {
				n, err := job.Reduce(k, parts[p][k], func(kv KV) {
					kvs = append(kvs, kv)
					outBytes += kv.wireBytes()
				})
				if err != nil {
					routs[p] = redOut{err: err}
					return
				}
				mulAdds += n
			}
			routs[p] = redOut{kvs: kvs, cpu: workCPU(int(inTuples), mulAdds), inBytes: inBytes, inTuples: inTuples, outBytes: outBytes}
		}(p)
	}
	wg.Wait()

	var redTaskTimes []time.Duration
	var outputs []KV
	for p, o := range routs {
		if o.err != nil {
			return nil, nil, fmt.Errorf("mapreduce: reduce task %d: %w", p, o.err)
		}
		met.ReduceCPU += o.cpu
		met.OutputBytes += o.outBytes
		// Reduce-side IO and merge CPU over the multiplicity-scaled
		// partition: the external merge crosses local disk MergePasses
		// times before the reduce function sees the stream.
		passes := cfg.Cost.MergePasses
		if passes <= 0 {
			passes = 2
		}
		scaledIn := float64(o.inBytes) * tupleScale
		io := seconds(float64(passes)*scaledIn/cfg.Cost.DiskBandwidth) +
			seconds(float64(o.outBytes)/cfg.Cost.DiskBandwidth)
		merge := time.Duration(float64(o.inTuples) * tupleScale * float64(cfg.Cost.TupleCPU))
		redTaskTimes = append(redTaskTimes, cfg.Cost.TaskOverhead+o.cpu+merge+io)
		outputs = append(outputs, o.kvs...)
	}
	met.ReduceTime = scheduleWaves(redTaskTimes, cfg.ReduceSlots)
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

func partition(key string, reducers int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(reducers))
}

func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
