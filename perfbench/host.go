package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
)

// runtimeSnap is a point-in-time read of the Go runtime's cumulative
// counters (runtime/metrics) plus the live heap gauge.
type runtimeSnap struct {
	GCCycles   uint64
	GCPauseS   float64 // estimated from the pause histogram
	AllocBytes uint64
	LiveBytes  uint64 // gauge: kept, not differenced
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/live:bytes"},
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	var out runtimeSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.GCCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64Histogram {
		out.GCPauseS = histSum(s[1].Value.Float64Histogram())
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.AllocBytes = s[2].Value.Uint64()
	}
	if s[3].Value.Kind() == metrics.KindUint64 {
		out.LiveBytes = s[3].Value.Uint64()
	}
	return out
}

// histSum estimates a histogram's total by bucket midpoints (the
// lower bound for the open-ended last bucket).
func histSum(h *metrics.Float64Histogram) float64 {
	sum := 0.0
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		v := lo
		switch {
		case math.IsInf(lo, -1):
			v = hi
		case !math.IsInf(hi, 1):
			v = (lo + hi) / 2
		}
		sum += float64(c) * v
	}
	return sum
}

func (r runtimeSnap) sub(prev runtimeSnap) runtimeSnap {
	return runtimeSnap{
		GCCycles:   r.GCCycles - prev.GCCycles,
		GCPauseS:   r.GCPauseS - prev.GCPauseS,
		AllocBytes: r.AllocBytes - prev.AllocBytes,
		LiveBytes:  r.LiveBytes,
	}
}

// add accumulates windowed deltas; the live gauge keeps the larger.
func (r runtimeSnap) add(d runtimeSnap) runtimeSnap {
	return runtimeSnap{
		GCCycles:   r.GCCycles + d.GCCycles,
		GCPauseS:   r.GCPauseS + d.GCPauseS,
		AllocBytes: r.AllocBytes + d.AllocBytes,
		LiveBytes:  max(r.LiveBytes, d.LiveBytes),
	}
}

// cleanHeap collects garbage and returns freed memory to the OS
// between measured phases, so each phase's resident peak starts from
// the data still in use rather than from leftovers of the last one.
func cleanHeap() { debug.FreeOSMemory() }

// procStatusKB reads one "<field>: <n> kB" line of /proc/self/status.
func procStatusKB(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, ":")
		if !ok || name != field {
			continue
		}
		num, _, _ := strings.Cut(strings.TrimSpace(val), " ")
		kb, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return 0
		}
		return kb
	}
	return 0
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 { return procStatusKB("VmHWM") / 1024 }

// engineWorkers is the engine pool size every workload uses: one
// worker per CPU the process may run on.
func engineWorkers() int { return runtime.GOMAXPROCS(0) }

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
