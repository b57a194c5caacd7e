package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
)

// machineFacts describes the host and the build, printed with every result
// so that numbers from different machines are never compared by mistake.
func machineFacts() map[string]any {
	facts := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu_model":  procField("/proc/cpuinfo", "model name"),
		"mem_total":  procField("/proc/meminfo", "MemTotal"),
		"commit":     "unknown (not built from a git checkout)",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				facts["commit"] = s.Value
			case "vcs.modified":
				facts["commit_modified"] = s.Value == "true"
			}
		}
	}
	return facts
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// freeSetupMemory returns setup garbage to the OS so that the measured
// phase starts from the heap it actually needs.
func freeSetupMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS resets the kernel's peak-RSS mark (VmHWM) to the current
// RSS, so that a later peakRSSMB covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads VmHWM in MiB.
func peakRSSMB() (float64, error) {
	v := procField("/proc/self/status", "VmHWM")
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("reading VmHWM: %q", v)
	}
	return kb / 1024, nil
}

// dirMB sums the sizes of the regular files under dir in MiB.
func dirMB(dir string) float64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return float64(n) / (1 << 20)
}

// runtimeSample is the slice of Go runtime state the traced run reports.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint32
	gcCPU      float64 // cumulative GC CPU seconds
	busyCPU    float64 // cumulative non-idle CPU seconds
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuMetrics)
	s := runtimeSample{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC}
	if cpuMetrics[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = cpuMetrics[0].Value.Float64()
		s.busyCPU = cpuMetrics[1].Value.Float64() - cpuMetrics[2].Value.Float64()
	}
	return s
}

// runtimeTotals accumulates runtime deltas over the traced operations only.
type runtimeTotals struct {
	ops        int
	allocBytes uint64
	gcCycles   uint32
	gcCPU      float64
	busyCPU    float64
}

func (t *runtimeTotals) add(before, after runtimeSample) {
	t.ops++
	t.allocBytes += after.allocBytes - before.allocBytes
	t.gcCycles += after.gcCycles - before.gcCycles
	t.gcCPU += after.gcCPU - before.gcCPU
	t.busyCPU += after.busyCPU - before.busyCPU
}

// report sets the go.* metrics: allocation and GC cycles per traced
// operation, and GC's share of the busy CPU time.
func (t *runtimeTotals) report(res *result) {
	ops := float64(max(t.ops, 1))
	res.set("go.alloc_mb_per_op", float64(t.allocBytes)/(1<<20)/ops)
	res.set("go.gc_cycles", float64(t.gcCycles)/ops)
	share := 0.0
	if t.busyCPU > 0 {
		share = t.gcCPU / t.busyCPU
	}
	res.set("go.gc_cpu_share", share)
}
