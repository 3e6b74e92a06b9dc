package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/routerplugins/eisr/internal/bmp"
	"github.com/routerplugins/eisr/internal/cycles"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/routing"
	"github.com/routerplugins/eisr/internal/sched"
	"github.com/routerplugins/eisr/internal/telemetry"
)

// replayPackets is the length of the packet stream each replay runs
// over, in chunks of replayChunk (the vector path's batch size).
const (
	replayPackets = 1 << 15
	replayChunk   = 32
)

// tracedSegments is the number of open-loop segments in each phase of
// the traced run.
const tracedSegments = 3

// openSegments runs n open-loop segments of length seg, each from a
// collected heap as in the timed run, so both runs see the collector
// at the same points.
func (d *driver) openSegments(n int, seg time.Duration, churn bool) openResult {
	var all openResult
	for range n {
		runtime.GC()
		o := d.openLoop(seg, churn)
		all.lat = append(all.lat, o.lat...)
		all.late = append(all.late, o.late...)
	}
	return all
}

// traced is the run with tracing on: an untraced open-loop phase, the
// same phase with the sched gate wrapped and every stage stamped, and
// replays of the workload's packet stream through each layer's public
// calls. Each phase repeats open-loop segments of the timed run's
// length. It reports the per-layer metrics.
func (ss *session) traced() (*Result, error) {
	res := &Result{Metrics: metricSet{}}
	m := res.Metrics
	warm, seg := phases(ss.cfg.seconds, ss.in.spec)

	// The untraced reference phase.
	g, _, err := ss.start(false)
	if err != nil {
		return nil, err
	}
	d, closeGen, err := ss.newDriver(g)
	if err != nil {
		ss.retire(g)
		return nil, err
	}
	d.closedLoop(warm, 1)
	plain := d.openSegments(tracedSegments, seg, ss.in.openChurn)
	closeGen()
	ss.retire(g)
	// Each pass's router is garbage before the next is built: two
	// fibchurn FIBs at once would double the heap the collector walks.
	d.g, g = nil, nil
	runtime.GC()
	plainP50 := percentile(nsTo(plain.lat, 1e3), 0.5)

	// The traced phase.
	g, _, err = ss.start(true)
	if err != nil {
		return nil, err
	}
	d, closeGen, err = ss.newDriver(g)
	if err != nil {
		ss.retire(g)
		return nil, err
	}
	d.closedLoop(warm, 1)
	aiuHit0, aiuMiss0 := g.r.AIU.Stats()
	evict0 := g.wrap.evictions.Load()
	queues0 := g.wrap.queuesCreated.Load()
	pkts0, busy0 := g.wrap.pkts.Load(), g.wrap.busyNs.Load()
	st := newStamps(d.seq, tracedSegments*int(seg.Seconds()*offeredPPS)+1)
	ss.t.st.Store(st)
	ol := d.openSegments(tracedSegments, seg, ss.in.openChurn)
	ss.t.st.Store(nil)
	closeGen()
	aiuHit, aiuMiss := g.r.AIU.Stats()
	lookups := (aiuHit - aiuHit0) + (aiuMiss - aiuMiss0)
	m.set(perLayer, "aiu.hit_ratio", float64(aiuHit-aiuHit0)/float64(max(lookups, 1)))
	m.set(perLayer, "aiu.evictions", float64(g.wrap.evictions.Load()-evict0))
	m.set(perLayer, "sched.queues_created", float64(g.wrap.queuesCreated.Load()-queues0))
	dispatched := g.wrap.pkts.Load() - pkts0
	m.set(perLayer, "plugins.sched_ns", float64(g.wrap.busyNs.Load()-busy0)/float64(max(dispatched, 1)))
	m.set(perLayer, "netdev.rx_ring_depth_max", float64(d.ringMax))
	m.set(perLayer, "sched.backlog_max", float64(d.backlogMax))
	in := g.ingress.Stats()
	m.set(perLayer, "netdev.rx_drop", float64(in.RxDrops))
	var txDrop uint64
	for _, e := range g.egress {
		txDrop += e.Stats().TxDrops
	}
	m.set(perLayer, "netdev.tx_drop", float64(txDrop))
	var poolDrop uint64
	if p := g.r.Core.Pool(); p != nil {
		poolDrop = p.DropTotal()
	}
	m.set(perLayer, "ipcore.pool_drop", float64(poolDrop))
	var rxBatch, rxRing, txRing float64
	if g.inLink != nil {
		li, lo := g.inLink.Stats(), g.outLink.Stats()
		rxBatch, rxRing, txRing = li.AvgBatch, float64(li.RxDropRing), float64(lo.TxDropRing)
	}
	m.set(perLayer, "netio.rx_batch_avg", rxBatch)
	m.set(perLayer, "netio.rx_drop_ring", rxRing)
	m.set(perLayer, "netio.tx_drop_ring", txRing)
	m.set(perLayer, "routefeed.load_s", g.feedLoad.Seconds())
	ss.retire(g)
	d.g, g = nil, nil
	runtime.GC()

	tracedP50 := percentile(nsTo(ol.lat, 1e3), 0.5)
	m.set(perLayer, "trace.lat_p50_us", tracedP50)
	m.set(perLayer, "trace.overhead_pct", (tracedP50-plainP50)/plainP50*100)
	ss.openDetail(res, nsTo(ol.lat, 1e3), ol.late)
	m.set(perLayer, "lat.samples", float64(len(ol.lat)))
	m.set(perLayer, "generator.late_p50_us", res.detail.LateP50us)
	m.set(perLayer, "generator.late_p99_us", res.detail.LateP99us)
	stageMetrics(m, st)

	if err := ss.replays(m); err != nil {
		return nil, err
	}
	return res, nil
}

// stageMetrics turns the per-packet stamps into stage times, counting
// only packets with every stamp. Each packet's stages tile its traced
// end-to-end latency, so the residual compares figures that do not
// contain each other: the sum of the reported per-stage medians against
// the median end-to-end latency. It says how far the stage medians
// account for the median packet.
func stageMetrics(m metricSet, st *stamps) {
	var inject, rxWait, gate, outWait, sink, e2e []float64
	for i := range st.t[0] {
		var s [numStages]int64
		ok := true
		for k := range s {
			s[k] = st.t[k][i]
			ok = ok && s[k] != 0
		}
		if !ok {
			continue
		}
		inject = append(inject, float64(s[stInjectOut]-s[stInjectIn]))
		rxWait = append(rxWait, float64(s[stGateIn]-s[stInjectOut]))
		gate = append(gate, float64(s[stGateOut]-s[stGateIn]))
		outWait = append(outWait, float64(s[stSinkIn]-s[stGateOut]))
		sink = append(sink, float64(s[stSinkOut]-s[stSinkIn]))
		e2e = append(e2e, float64(s[stSinkOut]-s[stInjectIn]))
	}
	m.set(perLayer, "trace.stamped_pkts", float64(len(e2e)))
	m.set(perLayer, "netdev.inject_ns", median(inject))
	m.set(perLayer, "ipcore.rx_wait_us", median(rxWait)/1e3)
	m.set(perLayer, "ipcore.out_wait_us", median(outWait)/1e3)
	m.set(perLayer, "trace.sink_ns", median(sink))
	sum := median(inject) + median(rxWait) + median(gate) + median(outWait) + median(sink)
	me := median(e2e)
	m.set(perLayer, "trace.stage_sum_residual_pct", (me-sum)/me*100)
}

// timeChunks runs op over the stream in chunks and returns the median
// nanoseconds per item; prep (untimed) readies each chunk.
func timeChunks(n int, prep func(lo, hi int), op func(lo, hi int)) float64 {
	var per []float64
	for lo := 0; lo < n; lo += replayChunk {
		hi := min(lo+replayChunk, n)
		if prep != nil {
			prep(lo, hi)
		}
		start := time.Now()
		op(lo, hi)
		per = append(per, float64(time.Since(start))/float64(hi-lo))
	}
	return median(per)
}

// replays measures each layer's public call over the workload's own
// packet stream, on a router that is set up like the run's but not
// started, so only the benchmark goroutine touches it.
func (ss *session) replays(m metricSet) error {
	rin := *ss.in
	rin.wire = false // replays transmit to in-process sinks
	rt := newTracker(rin.traffic, replayPackets*4)
	g, err := setupRig(&rin, rt, false, ss.dump, "")
	if err != nil {
		return err
	}
	g.stop()

	data := make([][]byte, replayPackets)
	keys := make([]pkt.Key, replayPackets)
	for j := range data {
		f := rin.traffic.flowOf(uint64(j))
		data[j] = writeDatagram(make([]byte, dgramLen), rin.traffic.key(f), uint64(j), f)
		p, err := pkt.NewPacket(data[j], 0)
		if err != nil {
			return err
		}
		keys[j] = p.Key
	}
	n := replayPackets
	ps := make([]*pkt.Packet, replayChunk)

	m.set(perLayer, "pkt.parse_ns", timeChunks(n, nil, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			ps[j-lo], _ = pkt.NewPacket(data[j], 0)
		}
	}))

	// Inject's allocation per packet, on the replay router's ingress.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	for j := 0; j < n; j++ {
		if err := g.ingress.Inject(data[j]); err != nil {
			return fmt.Errorf("replay inject: %w", err)
		}
		g.ingress.Poll().ReleaseBuf()
	}
	runtime.ReadMemStats(&ms)
	m.set(perLayer, "netdev.inject_alloc_b", float64(ms.TotalAlloc-alloc0)/float64(n))

	// pollChunk injects a chunk and takes it off the RX ring, as the
	// Run loop would.
	pollChunk := func(lo, hi int) {
		for j := lo; j < hi; j++ {
			if g.ingress.Inject(data[j]) == nil {
				ps[j-lo] = g.ingress.Poll()
			}
		}
	}
	core := g.r.Core
	var sent int
	drainAll := func() {
		for _, e := range g.egress {
			sent += core.TxDrain(e.Index, 1<<30)
		}
	}
	m.set(perLayer, "ipcore.forward_ns", timeChunks(n, pollChunk, func(lo, hi int) {
		for _, p := range ps[:hi-lo] {
			core.Forward(p)
		}
	}))
	drainAll()
	// TxDrain per transmitted packet: forward a chunk untimed, then
	// time draining it.
	var drainNs []float64
	for lo := 0; lo < n; lo += replayChunk {
		hi := min(lo+replayChunk, n)
		pollChunk(lo, hi)
		for _, p := range ps[:hi-lo] {
			core.Forward(p)
		}
		before := sent
		start := time.Now()
		drainAll()
		if k := sent - before; k > 0 {
			drainNs = append(drainNs, float64(time.Since(start))/float64(k))
		}
	}
	m.set(perLayer, "ipcore.txdrain_ns", median(drainNs))
	b := core.NewBatcher(replayChunk)
	m.set(perLayer, "ipcore.forward_batch_ns", timeChunks(n, func(lo, hi int) {
		drainAll()
		pollChunk(lo, hi)
	}, func(lo, hi int) {
		b.ForwardBatch(ps[:hi-lo])
	}))
	drainAll()

	// Flow-cache hits on flows the replays just forwarded (the last
	// ones, which even a small cache still holds).
	hot := n - min(n, 2048)
	now := time.Now()
	fresh := func(lo, hi int) {
		for j := lo; j < hi; j++ {
			ps[j-lo], _ = pkt.NewPacket(data[hot+j%(n-hot)], 0)
		}
	}
	m.set(perLayer, "aiu.hit_ns", timeChunks(8192, fresh, func(lo, hi int) {
		for _, p := range ps[:hi-lo] {
			g.r.AIU.LookupGate(p, pcu.TypeSched, now, nil)
		}
	}))

	var c cycles.Counter
	m.set(perLayer, "aiu.classify_ns", timeChunks(n, nil, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			g.r.AIU.ClassifyKey(pcu.TypeSched, keys[j], &c)
		}
	}))
	m.set(perLayer, "aiu.classify_mem", float64(c.Total())/float64(n))

	// Guard.Dispatch into the bound DRR instance; the flow record comes
	// from an untimed LookupGate, the queue is emptied untimed.
	guard := g.r.PCU.Guard()
	m.set(perLayer, "pcu.dispatch_ns", timeChunks(n, func(lo, hi int) {
		for p := g.drr.Drain(); p != nil; p = g.drr.Drain() {
			p.ReleaseBuf()
		}
		for j := lo; j < hi; j++ {
			p, _ := pkt.NewPacket(data[j], 0)
			g.r.AIU.LookupGate(p, pcu.TypeSched, now, nil)
			ps[j-lo] = p
		}
	}, func(lo, hi int) {
		for _, p := range ps[:hi-lo] {
			guard.Dispatch(pcu.TypeSched, g.drr, p)
		}
	}))

	m.set(perLayer, "sched.enq_deq_ns", schedReplay(&rin, data))

	c.Reset()
	m.set(perLayer, "routing.lookup_ns", timeChunks(n, nil, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			g.r.Routes.Lookup(keys[j].Dst, &c)
		}
	}))
	m.set(perLayer, "routing.lookup_mem", float64(c.Total())/float64(n))
	ss.checkReplay(rt)
	g = nil
	runtime.GC()
	return routingReplay(m, &rin)
}

// schedReplay times DRR EnqueueFlow+Dequeue per packet over the
// stream's flow mix; creating and retiring queues is untimed.
func schedReplay(in *inputs, data [][]byte) float64 {
	drr := sched.NewDRR(1500, 128)
	queues := map[uint32]*sched.DRRQueue{}
	ps := make([]*pkt.Packet, replayChunk)
	qs := make([]*sched.DRRQueue, replayChunk)
	return timeChunks(len(data), func(lo, hi int) {
		if len(queues) > 4096 {
			for f, q := range queues {
				drr.RemoveQueue(q)
				delete(queues, f)
			}
		}
		for j := lo; j < hi; j++ {
			f := in.traffic.flowOf(uint64(j))
			q := queues[f]
			if q == nil {
				q = drr.NewQueue("", 1)
				queues[f] = q
			}
			ps[j-lo], _ = pkt.NewPacket(data[j], 0)
			qs[j-lo] = q
		}
	}, func(lo, hi int) {
		for i := 0; i < hi-lo; i++ {
			drr.EnqueueFlow(qs[i], ps[i])
		}
		for i := 0; i < hi-lo; i++ {
			drr.Dequeue()
		}
	})
}

// routingReplay builds the workload's FIB in a fresh table and replays
// its route-change sequence through ApplyBatch, counting how many
// publications took the incremental path.
func routingReplay(m metricSet, in *inputs) error {
	tbl, err := routing.New(bmp.KindBSPL)
	if err != nil {
		return err
	}
	tel := telemetry.New()
	tbl.SetTelemetry(tel)
	parse := func(r route) (routing.Route, error) { return routing.ParseRoute(r.String()) }
	all := make([]routing.Route, 0, len(in.routes))
	for _, r := range in.routes {
		rt, err := parse(r)
		if err != nil {
			return err
		}
		all = append(all, rt)
	}
	start := time.Now()
	tbl.ApplyBatch(all, nil)
	m.set(perLayer, "routing.build_s", time.Since(start).Seconds())

	counter := func(path string) uint64 {
		return tel.CounterValue(fmt.Sprintf(`eisr_fib_publishes_total{kind="%s",path="%s"}`, bmp.KindBSPL, path))
	}
	inc0, reb0 := counter("incremental"), counter("rebuild")
	up := append([]bool(nil), in.churnIn...)
	var per []float64
	for k := 0; k < 2048; k++ {
		i := k % len(in.churn)
		rt, err := parse(in.churn[i])
		if err != nil {
			return err
		}
		start := time.Now()
		if up[i] {
			tbl.ApplyBatch(nil, []pkt.Prefix{rt.Prefix})
		} else {
			tbl.ApplyBatch([]routing.Route{rt}, nil)
		}
		per = append(per, float64(time.Since(start)))
		up[i] = !up[i]
	}
	m.set(perLayer, "routing.apply_ns", median(per))
	inc, reb := counter("incremental")-inc0, counter("rebuild")-reb0
	m.set(perLayer, "routing.incremental_ratio", float64(inc)/float64(max(inc+reb, 1)))
	return nil
}

// checkReplay folds the replay sink's verdicts into the run's: a
// replayed packet that arrives corrupt or misrouted is as wrong as a
// live one. (Replays send each datagram several times, so repeats are
// not duplicates.)
func (ss *session) checkReplay(rt *tracker) {
	ss.t.corrupt.Add(rt.corrupt.Load())
	ss.t.misrouted.Add(rt.misrouted.Load())
}
