package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// workDir receives the run's scratch files (the FIB dump).
	workDir string
	// small shrinks the workload's tables for a quick smoke run.
	small bool
}

// Failures breaks the failed operations down.
type Failures struct {
	Lost      uint64 `json:"lost"`
	Corrupt   uint64 `json:"corrupt"`
	Misrouted uint64 `json:"misrouted"`
	Duplicate uint64 `json:"duplicate"`
	Stray     uint64 `json:"stray"`
	RouteErr  uint64 `json:"route_errors"`
}

// Loss attributes lost packets to the layer that dropped them.
type Loss struct {
	SinkSocket    uint64 `json:"sink_socket"`
	IngressSocket uint64 `json:"ingress_socket"`
	RxRing        uint64 `json:"rx_ring"`
	PoolShed      uint64 `json:"pool_shed"`
	Sched         uint64 `json:"sched"`
	TxRing        uint64 `json:"tx_ring"`
	Unattributed  uint64 `json:"unattributed"`
}

// Detail is printed on the line before the result: the environment
// and everything that qualifies the metrics.
type Detail struct {
	Workload string      `json:"workload"`
	Trace    bool        `json:"trace"`
	Env      Environment `json:"env"`
	Packets  uint64      `json:"packets"`
	RouteOps uint64      `json:"route_ops"`
	Failures Failures    `json:"failures"`
	Loss     Loss        `json:"loss"`
	// The samples the latency and route-update percentiles are taken
	// over (see quietSamples).
	LatSamples   int       `json:"lat_samples"`
	RouteSamples int       `json:"route_update_samples"`
	LateP50us    float64   `json:"generator_late_p50_us"`
	LateP99us    float64   `json:"generator_late_p99_us"`
	OfferedPPS   float64   `json:"offered_pps"`
	Window       int       `json:"closed_loop_window"`
	ChurnHz      float64   `json:"route_changes_per_s"`
	SetupRuns    []float64 `json:"setup_runs_s,omitempty"`
	KppsWindows  []float64 `json:"fwd_kpps_windows,omitempty"`
	// The CPU steal jiffies counted during each latency window.
	LatWindowSteal []uint64 `json:"lat_window_steal,omitempty"`
}

// Result is one run's outcome.
type Result struct {
	Correct   bool      `json:"correct"`
	Attempted uint64    `json:"attempted"`
	Failed    uint64    `json:"failed"`
	Metrics   metricSet `json:"metrics"`
	detail    Detail
}

// session holds what both kinds of run share.
type session struct {
	cfg  config
	in   *inputs
	t    *tracker
	dump string
	sink *wireSink // wire workload only
	loss Loss
	// kernel drop counter at the start, wire workload only
	rcvbuf0 uint64
	drivers []*driver
}

func run(cfg config) (*Result, error) {
	s, ok := specByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive")
	}
	if cfg.small {
		s = s.small()
	}
	in := newInputs(s, cfg.seed)
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ss := &session{cfg: cfg, in: in, dump: filepath.Join(dir, "fib.txt")}
	if err := writeDump(ss.dump, in.routes); err != nil {
		return nil, err
	}
	// Room for every sequence number a run can use: 2 Mpps, several
	// times what the router forwards today, for the whole run.
	ss.t = newTracker(in.traffic, uint64(2_000_000*(cfg.seconds+2)))
	if in.wire {
		if ss.sink, err = newWireSink(ss.t); err != nil {
			return nil, err
		}
		defer ss.sink.close()
		if ss.rcvbuf0, err = udpRcvbufErrors(); err != nil {
			return nil, err
		}
	}
	steal0, total0, _ := cpuTimes()
	var res *Result
	if cfg.trace {
		res, err = ss.traced()
	} else {
		res, err = ss.timed()
	}
	if err != nil {
		return nil, err
	}
	res.detail.Workload, res.detail.Trace = cfg.workload, cfg.trace
	res.detail.Env = environment(cfg.seed, cfg.seconds)
	if steal, total, ok := cpuTimes(); ok && total > total0 {
		res.detail.Env.StealPct = float64(steal-steal0) / float64(total-total0) * 100
	}
	res.detail.OfferedPPS, res.detail.Window, res.detail.ChurnHz = offeredPPS, closedWindow, churnHz
	ss.account(res)
	if cfg.trace {
		l, m := res.detail.Loss, res.Metrics
		m.set(perLayer, "netio.kernel_rcvbuf_drops", float64(l.SinkSocket+l.IngressSocket))
		for name, v := range map[string]uint64{
			"loss.sink_socket": l.SinkSocket, "loss.ingress_socket": l.IngressSocket,
			"loss.rx_ring": l.RxRing, "loss.pool_shed": l.PoolShed, "loss.sched": l.Sched,
			"loss.tx_ring": l.TxRing, "loss.unattributed": l.Unattributed,
		} {
			m.set(perLayer, name, float64(v))
		}
	}
	return res, nil
}

func (ss *session) sinkAddr() string {
	if ss.sink == nil {
		return ""
	}
	return ss.sink.addr()
}

// start sets a rig up and returns it with its set-up time.
func (ss *session) start(traced bool) (*rig, time.Duration, error) {
	begin := time.Now()
	g, err := setupRig(ss.in, ss.t, traced, ss.dump, ss.sinkAddr())
	return g, time.Since(begin), err
}

// newDriver wires the generator to a rig's ingress.
func (ss *session) newDriver(g *rig) (*driver, func(), error) {
	send, closeFn, err := g.sender()
	if err != nil {
		return nil, nil, err
	}
	d := newDriver(ss.in, ss.t, g, send)
	// Drivers of one run share the tracker's sequence space.
	if n := len(ss.drivers); n > 0 {
		d.seq = ss.drivers[n-1].seq
	}
	d.start = d.seq
	ss.drivers = append(ss.drivers, d)
	return d, closeFn, nil
}

// The timed run alternates segments closed, open, closed, open, ...
// so that both measurements spread over the whole run and a disturbed
// stretch of it touches only some of their windows. A workload whose
// open segments carry no route changes times them in a route segment
// routeSegs segments long, cut into one piece after each open segment.
const (
	segments  = 5
	routeSegs = 2
)

// Percentiles over quiet samples need at least this many of them (see
// quietSamples): five latency windows' worth of packets, and a thousand
// route calls, ten beyond their 99th percentile.
const (
	quietLatSamples   = 5 * latWindowSamples
	quietRouteSamples = 1000
)

// phases splits a run of the given length into a warm-up and the
// length of each closed or open segment.
func phases(seconds float64, s spec) (warm, seg time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	warm = min(max(total/10, 200*time.Millisecond), time.Second)
	n := 2 * segments
	if !s.openChurn {
		n += routeSegs
	}
	return warm, total * 9 / 10 / time.Duration(n)
}

// maxSetups caps the set-ups of a timed run. A set-up on a one-route
// FIB takes about half a millisecond, most of it waiting on the route
// feed and the probe, and single set-ups vary by several times that,
// so setup_s needs many to settle.
const maxSetups = 101

// timed is the run with tracing off: it reports the end-to-end
// metrics.
func (ss *session) timed() (*Result, error) {
	res := &Result{Metrics: metricSet{}}
	heap0 := liveHeap()
	var g *rig
	var setups []float64
	// At least three set-ups, more while they are quick: setup_s is
	// their median.
	for begin := time.Now(); len(setups) < 3 ||
		len(setups) < maxSetups && time.Since(begin) < time.Second; {
		if g != nil {
			ss.retire(g)
			g = nil
			runtime.GC()
		}
		var d time.Duration
		var err error
		if g, d, err = ss.start(false); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer ss.retire(g)
	d, closeGen, err := ss.newDriver(g)
	if err != nil {
		return nil, err
	}
	defer closeGen()
	warm, seg := phases(ss.cfg.seconds, ss.in.spec)
	d.fillRing()
	d.closedLoop(warm, 1)
	var kpps []float64
	var allocBytes, good uint64
	var lat, late []int64
	var latWin []int
	for i := 0; i < segments; i++ {
		// Each segment starts from a collected heap, as a Go benchmark
		// does, so the garbage collector's cycles fall at the same
		// points of every run.
		runtime.GC()
		cl := d.closedLoop(seg, 2)
		kpps = append(kpps, cl.kpps...)
		allocBytes += cl.allocBytes
		good += cl.good
		runtime.GC()
		o := d.openLoop(seg, ss.in.openChurn)
		lat, latWin, late = append(lat, o.lat...), append(latWin, o.latWin...), append(late, o.late...)
		if !ss.in.openChurn {
			// Route changes under the same offered load; the latencies
			// of this piece of the route segment are not counted.
			runtime.GC()
			d.openLoop(seg*routeSegs/segments, true)
		}
	}

	res.detail.SetupRuns = setups
	res.detail.KppsWindows = kpps
	res.detail.LatWindowSteal = d.winSteal
	m := res.Metrics
	m.set(endToEnd, "setup_s", median(append([]float64(nil), setups...)))
	m.set(endToEnd, "fwd_kpps", median(append([]float64(nil), kpps...)))
	pool := nsTo(quietSamples(lat, latWin, d.winSteal, quietLatSamples), 1e3)
	m.set(endToEnd, "lat_p50_us", percentile(pool, 0.50))
	m.set(endToEnd, "lat_p99_us", percentile(pool, 0.99))
	ss.openDetail(res, pool, late)
	calls := nsTo(quietSamples(d.churnLat, d.churnWin, d.winSteal, quietRouteSamples), 1e3)
	m.set(endToEnd, "route_update_p50_us", percentile(calls, 0.50))
	m.set(endToEnd, "route_update_p99_us", percentile(calls, 0.99))
	res.detail.RouteSamples = len(calls)
	m.set(endToEnd, "alloc_b_per_pkt", float64(allocBytes)/float64(max(good, 1)))
	// The router's share of the live heap: what the benchmark itself
	// still holds was allocated before heap0.
	m.set(endToEnd, "heap_mib", float64(liveHeap()-heap0)/(1<<20))
	runtime.KeepAlive(g)
	return res, nil
}

// openDetail records the latency sample count and the generator's
// lateness.
func (ss *session) openDetail(res *Result, lat []float64, lateNs []int64) {
	late := nsTo(lateNs, 1e3)
	res.detail.LatSamples = len(lat)
	res.detail.LateP50us = percentile(late, 0.50)
	res.detail.LateP99us = percentile(late, 0.99)
}

// liveHeap is the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// retire stops a rig and adds its drop counters to the loss ledger.
func (ss *session) retire(g *rig) {
	g.stop()
	ss.loss.RxRing += g.ingress.Stats().RxDropRing + g.ingress.Stats().RxDropOverload
	if p := g.r.Core.Pool(); p != nil {
		ss.loss.PoolShed += p.DropTotal()
	}
	ss.loss.Sched += g.r.Core.Stats().PluginDrops
	for _, e := range g.egress {
		ss.loss.TxRing += e.Stats().TxDrops
	}
	if g.outLink != nil {
		ss.loss.TxRing += g.outLink.Stats().TxErrors
	}
}

// account fills attempted, failed and correctness from the tracker
// and every driver, and attributes lost packets to layers.
func (ss *session) account(res *Result) {
	t := ss.t
	var sent, routeOps, routeErrs uint64
	for _, d := range ss.drivers {
		sent += d.seq - d.start
		routeOps += d.routeOps
		routeErrs += d.routeErrs
	}
	good := t.good.Load()
	f := Failures{
		Corrupt: t.corrupt.Load(), Misrouted: t.misrouted.Load(),
		Duplicate: t.dup.Load(), Stray: t.stray.Load(), RouteErr: routeErrs,
	}
	if sent > good {
		f.Lost = sent - good - min(sent-good, f.Corrupt+f.Misrouted)
	}
	res.Attempted = sent + routeOps
	res.Failed = (sent - min(sent, good)) + f.Duplicate + f.Stray + f.RouteErr
	res.Correct = f.Corrupt == 0 && f.Misrouted == 0 && f.Duplicate == 0 && f.Stray == 0 && f.RouteErr == 0
	res.detail.Packets, res.detail.RouteOps, res.detail.Failures = sent, routeOps, f
	l := ss.loss
	if ss.sink != nil {
		l.SinkSocket = uint64(ss.sink.overflow.Load())
		if now, err := udpRcvbufErrors(); err == nil && now-ss.rcvbuf0 > l.SinkSocket {
			l.IngressSocket = now - ss.rcvbuf0 - l.SinkSocket
		}
	}
	attributed := l.SinkSocket + l.IngressSocket + l.RxRing + l.PoolShed + l.Sched + l.TxRing
	if f.Lost > attributed {
		l.Unattributed = f.Lost - attributed
	}
	res.detail.Loss = l
}
