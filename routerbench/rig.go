package main

import (
	"bufio"
	"fmt"
	"net"
	"net/netip"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/routerplugins/eisr"
	"github.com/routerplugins/eisr/internal/aiu"
	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/netio"
	"github.com/routerplugins/eisr/internal/pcu"
	"github.com/routerplugins/eisr/internal/pkt"
	"github.com/routerplugins/eisr/internal/plugins"
	"github.com/routerplugins/eisr/internal/trafficgen"
)

const matchAll = "*, *, *, *, *, *"

// rig is one assembled router under test.
type rig struct {
	in      *inputs
	r       *eisr.Router
	ingress *netdev.Interface
	egress  []*netdev.Interface
	drr     *plugins.DRRInstance
	wrap    *traceInst // the sched-gate wrapper, traced rigs only
	// The wire workload's links: traffic enters on inLink's socket and
	// leaves through outLink to the benchmark's sink socket.
	inLink, outLink *netio.UDPLink

	feedLoad time.Duration // route-feed load to convergence

	churnUp   []bool // whether each churn prefix is announced
	churnNext int
}

// sinkDriver is the netdev.Driver on an in-process egress interface:
// it verifies every datagram the router transmits and hands nothing on.
type sinkDriver struct {
	t     *tracker
	iface int32
}

func (s *sinkDriver) Start() {}
func (s *sinkDriver) Stop()  {}
func (s *sinkDriver) TransmitWire(p *pkt.Packet) error {
	s.t.deliver(p.Data, s.iface)
	return nil
}

// writeDump writes the FIB in the route-feed dump format, one route
// per line, for the file: feed source.
func writeDump(path string, routes []route) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range routes {
		fmt.Fprintln(w, r.String())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setupRig assembles and starts a router ready to forward: interfaces
// and their sinks, the DRR instance bound match-all at the sched gate
// (through the tracing wrapper when traced), the workload's filters,
// and the FIB loaded from dump through the route feed. sinkAddr is the
// wire workload's sink socket.
func setupRig(in *inputs, t *tracker, traced bool, dump, sinkAddr string) (*rig, error) {
	r, err := eisr.New(eisr.Options{VerifyChecksums: true, Workers: in.workers, MaxFlows: in.maxFlows})
	if err != nil {
		return nil, err
	}
	g := &rig{in: in, r: r, churnUp: append([]bool(nil), in.churnIn...)}
	if err := g.assemble(t, traced, dump, sinkAddr); err != nil {
		g.stop()
		return nil, err
	}
	return g, nil
}

func (g *rig) assemble(t *tracker, traced bool, dump, sinkAddr string) error {
	r, in := g.r, g.in
	var err error
	if g.ingress, err = r.AddInterface(0, "in", ""); err != nil {
		return err
	}
	for i := 1; i <= in.egress; i++ {
		ifc, err := r.AddInterface(int32(i), fmt.Sprintf("out%d", i), "")
		if err != nil {
			return err
		}
		g.egress = append(g.egress, ifc)
		if !in.wire {
			ifc.AttachDriver(&sinkDriver{t: t, iface: int32(i)})
		}
	}
	if in.wire {
		if g.inLink, err = r.AttachUDPLink(0, "127.0.0.1:0", ""); err != nil {
			return err
		}
		if g.outLink, err = r.AttachUDPLink(1, "127.0.0.1:0", sinkAddr); err != nil {
			return err
		}
	}
	if err := g.plugins(t, traced); err != nil {
		return err
	}
	start := time.Now()
	if err := r.AttachFeed("file:" + dump); err != nil {
		return err
	}
	r.Start()
	if err := g.awaitFeed(len(in.routes), 60*time.Second); err != nil {
		return err
	}
	g.feedLoad = time.Since(start)
	return g.probe(t)
}

// sender returns how the generator hands a datagram to the router:
// Inject on the ingress interface, or for the wire workload a write
// from a socket of the generator's own to the ingress link, which the
// returned function closes.
func (g *rig) sender() (send func([]byte) error, closeFn func(), err error) {
	if g.inLink == nil {
		return g.ingress.Inject, func() {}, nil
	}
	to, err := netip.ParseAddrPort(g.inLink.LocalAddr())
	if err != nil {
		return nil, nil, err
	}
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, nil, err
	}
	send = func(b []byte) error {
		_, err := conn.WriteToUDPAddrPort(b, to)
		return err
	}
	return send, func() { conn.Close() }, nil
}

// probeSeq is the sequence number of set-up probes, outside every
// run's sequence space.
const probeSeq = 1 << 63

// probe forwards one datagram end to end and waits for the sink to see
// it: the router is ready to forward only once lazily built state (the
// classifier's DAG over the installed filters) exists.
func (g *rig) probe(t *tracker) error {
	f := g.in.traffic.flowOf(0)
	b := writeDatagram(make([]byte, dgramLen), g.in.traffic.key(f), probeSeq, f)
	send, closeFn, err := g.sender()
	if err != nil {
		return err
	}
	defer closeFn()
	seen := t.probes.Load()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if err := send(b); err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		for retry := time.Now().Add(100 * time.Millisecond); time.Now().Before(retry); {
			if t.probes.Load() > seen {
				return nil
			}
			runtime.Gosched()
		}
	}
	return fmt.Errorf("set-up probe was not forwarded in 30s")
}

// plugins loads DRR, binds it (or its tracing wrapper) match-all at
// the sched gate, and installs the workload's filters.
func (g *rig) plugins(t *tracker, traced bool) error {
	r := g.r
	if err := r.LoadPlugin("drr"); err != nil {
		return err
	}
	drrName, err := r.CreateInstance("drr", map[string]string{"iface": "1"})
	if err != nil {
		return err
	}
	inst, err := r.PCU.FindInstance("drr", drrName)
	if err != nil {
		return err
	}
	var ok bool
	if g.drr, ok = inst.(*plugins.DRRInstance); !ok {
		return fmt.Errorf("drr instance %s has type %T", drrName, inst)
	}
	bindPlugin, bindName := "drr", drrName
	if traced {
		tp := &tracePlugin{r: r, t: t}
		if err := r.PCU.Load(tp); err != nil {
			return err
		}
		if bindName, err = r.CreateInstance(tp.PluginName(), map[string]string{"target": drrName}); err != nil {
			return err
		}
		bindPlugin, g.wrap = tp.PluginName(), tp.inst
	}
	if err := r.Register(bindPlugin, bindName, map[string]string{"filter": matchAll}); err != nil {
		return err
	}
	for _, f := range g.in.filters {
		if err := r.Register(bindPlugin, bindName, map[string]string{"filter": f, "weight": "2"}); err != nil {
			return err
		}
	}
	if g.in.table3Filters {
		if err := r.LoadPlugin("null-options"); err != nil {
			return err
		}
		null, err := r.CreateInstance("null-options", nil)
		if err != nil {
			return err
		}
		for _, f := range trafficgen.Table3Filters() {
			if err := r.Register("null-options", null, map[string]string{"filter": f.String()}); err != nil {
				return err
			}
		}
	}
	return nil
}

// awaitFeed waits until the feed has installed every route of the dump
// and has nothing pending.
func (g *rig) awaitFeed(n int, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		st, err := g.r.FeedReport()
		if err != nil {
			return err
		}
		if len(st) == 1 && st[0].Routes == n && st[0].Pending == 0 && g.r.Routes.Len() == n {
			return nil
		}
		if len(st) == 1 && st[0].LastError != "" {
			return fmt.Errorf("route feed: %s", st[0].LastError)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("route feed did not converge in %v: %+v", limit, st)
		}
		runtime.Gosched()
	}
}

// stop stops the router and closes its links; a router that failed
// before it started still has link sockets open.
func (g *rig) stop() {
	g.r.Stop()
	for _, l := range []*netio.UDPLink{g.inLink, g.outLink} {
		if l != nil {
			l.Stop()
		}
	}
}

// churn issues the next route change — an AddRoutes batch announcing a
// withdrawn prefix or a DelRoute withdrawing an announced one — and
// returns its duration.
func (g *rig) churn() (time.Duration, error) {
	i := g.churnNext % len(g.in.churn)
	g.churnNext++
	c := g.in.churn[i]
	var err error
	start := time.Now()
	if g.churnUp[i] {
		err = g.r.DelRoute(c.prefix())
	} else {
		err = g.r.AddRoutes([]string{c.String()})
	}
	d := time.Since(start)
	g.churnUp[i] = !g.churnUp[i]
	return d, err
}

// tracePlugin is the benchmark's own sched-gate plugin: each instance
// wraps a DRR instance, timestamps every dispatch into it, and binds
// filters to itself exactly as DRR would, so the router forwards the
// same way with the wrapper in place.
type tracePlugin struct {
	r    *eisr.Router
	t    *tracker
	inst *traceInst
}

func (p *tracePlugin) PluginName() string   { return "routerbench-trace" }
func (p *tracePlugin) PluginCode() pcu.Code { return pcu.MakeCode(pcu.TypeSched, 0x7e57) }

func (p *tracePlugin) Callback(msg *pcu.Message) error {
	switch msg.Kind {
	case pcu.MsgCreateInstance:
		inner, err := p.r.PCU.FindInstance("drr", msg.Arg("target", ""))
		if err != nil {
			return err
		}
		slot, ok := p.r.AIU.Slot(pcu.TypeSched)
		if !ok {
			return fmt.Errorf("no sched gate")
		}
		batch, okb := inner.(pcu.BatchHandler)
		evict, oke := inner.(aiu.FlowEvictListener)
		if !okb || !oke {
			return fmt.Errorf("routerbench-trace: %T lacks HandleBatch or FlowEvicted", inner)
		}
		p.inst = &traceInst{name: "trace0", inner: inner, batch: batch, evict: evict, slot: slot, t: p.t}
		msg.Reply = p.inst
		return nil
	case pcu.MsgRegisterInstance:
		f, err := aiu.ParseFilter(msg.Arg("filter", ""))
		if err != nil {
			return err
		}
		w, err := strconv.ParseFloat(msg.Arg("weight", "1"), 64)
		if err != nil {
			return err
		}
		rec, err := p.r.AIU.Bind(pcu.TypeSched, f, msg.Instance, &plugins.Reservation{Weight: w})
		msg.Reply = rec
		return err
	case pcu.MsgFreeInstance:
		p.r.AIU.UnbindInstance(msg.Instance)
		return nil
	}
	return fmt.Errorf("routerbench-trace: unsupported message %v", msg.Kind)
}

// traceInst times the wrapped instance. It implements HandlePacket and
// HandleBatch, so the scalar and the vector walk both go through it,
// and passes flow evictions on so DRR still tears its queues down.
type traceInst struct {
	name  string
	inner pcu.Instance
	batch pcu.BatchHandler
	evict aiu.FlowEvictListener
	slot  int
	t     *tracker

	pkts, busyNs  atomic.Int64
	queuesCreated atomic.Int64
	evictions     atomic.Int64
}

func (w *traceInst) InstanceName() string { return w.name }

// newQueue reports whether DRR will create a queue for p's flow.
func (w *traceInst) newQueue(p *pkt.Packet) bool {
	rec, _ := p.FIX.(*aiu.FlowRecord)
	return rec != nil && rec.Bind(w.slot).Private == nil
}

func (w *traceInst) HandlePacket(p *pkt.Packet) error {
	if w.newQueue(p) {
		w.queuesCreated.Add(1)
	}
	// Read the sequence number first: with workers, the output loop may
	// transmit the packet as soon as it is queued.
	seq, ok := seqOf(p.Data)
	in := w.t.now()
	err := w.inner.HandlePacket(p)
	out := w.t.now()
	if st := w.t.st.Load(); st != nil && ok {
		st.mark(seq, stGateIn, in)
		st.mark(seq, stGateOut, out)
	}
	w.pkts.Add(1)
	w.busyNs.Add(out - in)
	return err
}

func (w *traceInst) HandleBatch(ps []*pkt.Packet) {
	for _, p := range ps {
		if w.newQueue(p) {
			w.queuesCreated.Add(1)
		}
	}
	// Keep the sequence numbers: the batch may transmit or free
	// packets once the wrapped call returns.
	var seqs [64]uint64
	var ok [64]bool
	for i, p := range ps {
		if i < len(seqs) {
			seqs[i], ok[i] = seqOf(p.Data)
		}
	}
	in := w.t.now()
	w.batch.HandleBatch(ps)
	out := w.t.now()
	if st := w.t.st.Load(); st != nil {
		for i := range ps {
			if i < len(seqs) && ok[i] {
				st.mark(seqs[i], stGateIn, in)
				st.mark(seqs[i], stGateOut, out)
			}
		}
	}
	w.pkts.Add(int64(len(ps)))
	w.busyNs.Add(out - in)
}

func (w *traceInst) FlowEvicted(key pkt.Key, slot int, b aiu.GateBind) {
	w.evictions.Add(1)
	w.evict.FlowEvicted(key, slot, b)
}
