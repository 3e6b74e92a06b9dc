package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the timed run's metrics, what a user of the router sees.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"fwd_kpps", "kpps", "higher"},
	{"lat_p50_us", "us", "lower"},
	{"lat_p99_us", "us", "lower"},
	{"route_update_p50_us", "us", "lower"},
	{"route_update_p99_us", "us", "lower"},
	{"heap_mib", "MiB", "lower"},
	{"alloc_b_per_pkt", "B", "lower"},
}

// perLayer are the traced run's metrics, one layer each.
var perLayer = []metricDef{
	{"netdev.inject_ns", "ns", "lower"},
	{"netdev.inject_alloc_b", "B", "lower"},
	{"pkt.parse_ns", "ns", "lower"},
	{"netdev.rx_ring_depth_max", "count", "lower"},
	{"netdev.rx_drop", "count", "lower"},
	{"netdev.tx_drop", "count", "lower"},
	{"ipcore.rx_wait_us", "us", "lower"},
	{"ipcore.out_wait_us", "us", "lower"},
	{"ipcore.forward_ns", "ns", "lower"},
	{"ipcore.forward_batch_ns", "ns", "lower"},
	{"ipcore.txdrain_ns", "ns", "lower"},
	{"ipcore.pool_drop", "count", "lower"},
	{"aiu.hit_ns", "ns", "lower"},
	{"aiu.classify_ns", "ns", "lower"},
	{"aiu.classify_mem", "count", "lower"},
	{"aiu.hit_ratio", "ratio", "higher"},
	{"aiu.evictions", "count", "lower"},
	{"pcu.dispatch_ns", "ns", "lower"},
	{"plugins.sched_ns", "ns", "lower"},
	{"sched.enq_deq_ns", "ns", "lower"},
	{"sched.backlog_max", "count", "lower"},
	{"sched.queues_created", "count", "lower"},
	{"routing.lookup_ns", "ns", "lower"},
	{"routing.lookup_mem", "count", "lower"},
	{"routing.apply_ns", "ns", "lower"},
	{"routing.incremental_ratio", "ratio", "higher"},
	{"routing.build_s", "s", "lower"},
	{"routefeed.load_s", "s", "lower"},
	{"netio.rx_batch_avg", "count", "higher"},
	{"netio.rx_drop_ring", "count", "lower"},
	{"netio.tx_drop_ring", "count", "lower"},
	{"netio.kernel_rcvbuf_drops", "count", "lower"},
	{"loss.sink_socket", "count", "lower"},
	{"loss.ingress_socket", "count", "lower"},
	{"loss.rx_ring", "count", "lower"},
	{"loss.pool_shed", "count", "lower"},
	{"loss.sched", "count", "lower"},
	{"loss.tx_ring", "count", "lower"},
	{"loss.unattributed", "count", "lower"},
	{"generator.late_p50_us", "us", "lower"},
	{"generator.late_p99_us", "us", "lower"},
	{"lat.samples", "count", "higher"},
	{"trace.lat_p50_us", "us", "lower"},
	{"trace.stamped_pkts", "count", "higher"},
	{"trace.sink_ns", "ns", "lower"},
	{"trace.stage_sum_residual_pct", "%", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// residualTolerancePct is the stated bound on
// |trace.stage_sum_residual_pct|.
const residualTolerancePct = 5.0

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name; units come from the catalogue.
type metricSet map[string]Metric

func (m metricSet) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			m[name] = Metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("routerbench: metric " + name + " is not in the catalogue")
}

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between closest ranks; xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (xs[lo+1]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// latWindowSamples is the size of a latency window: 1000 consecutive
// open-loop packets, 50 ms of traffic.
const latWindowSamples = 1000

// quietSamples returns the samples taken in quiet latency windows, if
// there are at least least of them; otherwise it returns every sample.
// win is each sample's window and steal each window's steal count. A
// window is quiet when the hypervisor took no CPU time from this VM
// (steal) during it or the windows either side: steal is read in whole
// jiffies, so a pause can be charged to a neighbour, and the backlog it
// leaves spills into the next window. Other tenants' load is not the
// router's: on a shared host it otherwise decides the tail. Windows are
// picked by the host's state, never by the samples in them, and the
// percentiles are taken over the pooled samples, so a stall of the
// router's own counts wherever it falls.
func quietSamples(xs []int64, win []int, steal []uint64, least int) []int64 {
	quietWin := func(w int) bool {
		for v := max(w-1, 0); v <= w+1 && v < len(steal); v++ {
			if steal[v] != 0 {
				return false
			}
		}
		return w < len(steal)
	}
	var quiet []int64
	for i, w := range win {
		if quietWin(w) {
			quiet = append(quiet, xs[i])
		}
	}
	if len(quiet) < least {
		return xs
	}
	return quiet
}

// nsTo converts nanosecond samples to float64s scaled by 1/div.
func nsTo(xs []int64, div float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) / div
	}
	return out
}

// Environment is recorded in every result: results from hosts whose
// timers differ are not comparable, because the router's idle sleep
// sets its loop cadence.
type Environment struct {
	Host       string  `json:"host"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Sleep50us  float64 `json:"sleep_50us_measured_us"`
	// StealPct is the share of CPU time the hypervisor withheld during
	// the run: other tenants' load, which the metrics absorb.
	StealPct float64 `json:"cpu_steal_pct"`
}

func environment(seed int64, seconds float64) Environment {
	host, _ := os.Hostname() // best effort: an empty host name is still a valid record
	commit := os.Getenv("ROUTERBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return Environment{
		Host: host, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, Seed: seed, Seconds: seconds,
		Sleep50us: measureSleep(),
	}
}

// cpuTimes reads the steal and total jiffies of all CPUs from
// /proc/stat; ok is false where that file is not there.
func cpuTimes() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i == 7 {
			steal = v
		}
		if i < 8 {
			total += v
		}
	}
	return steal, total, true
}

// measureSleep is the median measured length of time.Sleep(50µs), in
// µs: the router's Run loop sleeps that long when idle.
func measureSleep() float64 {
	xs := make([]float64, 0, 50)
	for i := 0; i < 50; i++ {
		start := time.Now()
		time.Sleep(50 * time.Microsecond)
		xs = append(xs, float64(time.Since(start))/1e3)
	}
	return median(xs)
}
