package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"github.com/routerplugins/eisr/internal/trafficgen"
)

// The load every workload is driven with, the same on every commit.
const (
	// offeredPPS is the open loop's offered load in packets per second.
	offeredPPS = 20000
	// closedWindow is the closed loop's packets in flight.
	closedWindow = 256
	// churnHz is the rate of route-change calls, issued by the generator
	// goroutine itself. It is a load choice, not a measurement of real
	// BGP churn (README.md, "Route changes").
	churnHz = 4000
)

// spec fixes one workload's shape. Everything random in it is drawn
// from the run's seed by newInputs; the router only ever sees the
// generated datagrams, routes and filters.
type spec struct {
	name string
	// flows is the number of long-lived flows; 0 means every flow sends
	// two packets and is never seen again (newflow).
	flows int
	// workers is Options.Workers (1 = eisrd's default single loop).
	workers int
	// maxFlows sizes the flow cache (0 = the router's default).
	maxFlows int
	// openChurn runs route changes during the open-loop latency
	// segments. The other workloads time their route changes in a
	// segment of their own, so their latency segments carry no churn.
	openChurn bool
	// fibSize is the number of generated prefixes loaded besides the
	// default route (0 = a one-route FIB).
	fibSize int
	// egress is the number of egress interfaces (1..egress); the FIB
	// spreads its prefixes over them.
	egress int
	// table3Filters installs Table 3's 16 non-matching filters at the
	// options gate; flowFilters installs that many reservation-style
	// filters at the sched gate.
	table3Filters bool
	flowFilters   int
	// wire drives the router through netio UDP links over loopback
	// instead of Interface.Inject and an in-process sink.
	wire bool
}

// specs are the workloads; README.md gives why each was chosen.
var specs = []spec{
	{
		// After each flow's first packet every packet is a flow-cache
		// hit, so the fixed per-packet path does the work.
		name:  "hit64",
		flows: 1024, workers: 1, egress: 1, table3Filters: true,
	},
	{
		// Two packets per flow, against 4096 filters and a small flow
		// cache: classification, flow insert and evict, DRR queue churn.
		name:  "newflow",
		flows: 0, workers: 1, maxFlows: 4096, egress: 1, flowFilters: 4096,
	},
	{
		// BMP lookups over a table far larger than CPU caches, beside
		// incremental publication of route changes.
		name:  "fibchurn",
		flows: 65536, workers: 1, maxFlows: 131072, openChurn: true, fibSize: 250000, egress: 4,
	},
	{
		// Socket I/O, pool steering and the batched gate walk.
		name:  "wire",
		flows: 64, workers: 2, egress: 1, wire: true,
	},
}

// small is the workload at a tenth of its table sizes, for smoke runs.
func (s spec) small() spec {
	s.fibSize /= 10
	if s.fibSize > 0 {
		s.flows /= 8
	}
	s.flowFilters /= 4
	return s
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func workloadNames() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

// flowKey is a UDP five-tuple (protocol implied).
type flowKey struct {
	src, dst     uint32
	sport, dport uint16
}

// traffic maps packet numbers to flows and flows to their tuple and
// the egress interface the FIB must choose for them.
type traffic interface {
	flowOf(j uint64) uint32
	key(f uint32) flowKey
	egress(f uint32) int32
}

// fixedFlows is a set of long-lived flows visited in a seeded order.
type fixedFlows struct {
	keys  []flowKey
	egr   []int32
	order []uint32
}

func (t *fixedFlows) flowOf(j uint64) uint32 { return t.order[j%uint64(len(t.order))] }
func (t *fixedFlows) key(f uint32) flowKey   { return t.keys[f] }
func (t *fixedFlows) egress(f uint32) int32  { return t.egr[f] }

// newFlows gives every flow exactly two packets: packets come in
// groups of 32, the first 16 opening 16 fresh flows and the next 16
// sending each of them a second time. Flow f's tuple is a seeded
// bijection of f over a 2^24 source-address universe, so no tuple
// repeats within a run.
type newFlows struct {
	mul, add uint32
}

func (t *newFlows) flowOf(j uint64) uint32 { return uint32(j/32*16 + j%16) }

func (t *newFlows) key(f uint32) flowKey {
	x := (f*t.mul + t.add) & (1<<24 - 1)
	h := x * 0x9E3779B1
	return flowKey{
		src:   10<<24 | x,
		dst:   20<<24 | h>>8,
		sport: uint16(1024 + x%60000),
		dport: uint16(1 + h%1024),
	}
}

func (t *newFlows) egress(uint32) int32 { return 1 }

// route is one generated FIB entry.
type route struct {
	addr uint32
	len  int
	out  int32
}

// String is the route in the static-route and dump-file syntax.
func (r route) String() string { return fmt.Sprintf("%s dev %d", r.prefix(), r.out) }

func (r route) prefix() string {
	return fmt.Sprintf("%d.%d.%d.%d/%d", r.addr>>24, r.addr>>16&0xff, r.addr>>8&0xff, r.addr&0xff, r.len)
}

func maskOf(l int) uint32 {
	if l == 0 {
		return 0
	}
	return ^uint32(0) << (32 - l)
}

// inputs is everything a run generates from its seed.
type inputs struct {
	spec
	traffic traffic
	// routes is the FIB loaded at set-up (default route first).
	routes []route
	// churn is the pool of prefixes route changes toggle; churnIn says
	// whether each starts announced. No flow's destination lies under
	// a churn prefix, so churn never changes where a packet must go.
	churn   []route
	churnIn []bool
	// filters are the sched-gate reservation filters (newflow).
	filters []string
}

// Length mix of the generated table. Its shape follows the public IPv4
// table as commonly described (/24 more than half of all prefixes, then
// /22-/23, /16 and the /17-/21 band), but the weights are not taken
// from a table dump: treat them as unverified (README.md).
var prefixLens = []struct {
	len    int
	weight int
}{
	{8, 1}, {10, 1}, {12, 2}, {13, 2}, {14, 4}, {15, 6}, {16, 45}, {17, 10}, {18, 17},
	{19, 35}, {20, 50}, {21, 50}, {22, 110}, {23, 90}, {24, 577},
}

func drawLen(rng *rand.Rand, total int) int {
	n := rng.Intn(total)
	for _, pl := range prefixLens {
		if n < pl.weight {
			return pl.len
		}
		n -= pl.weight
	}
	return 24
}

// unicast reports whether a first octet is ordinary global unicast
// space (not 0/8, 10/8, 20/8, 127/8, or class D/E), so generated
// routes never shadow the sources or the default-routed destinations.
func unicast(a uint32) bool {
	o := a >> 24
	return o != 0 && o != 10 && o != 20 && o != 127 && o < 224
}

func newInputs(s spec, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{spec: s}
	in.routes = []route{{addr: 0, len: 0, out: 1}}
	switch {
	case s.flows == 0:
		in.traffic = &newFlows{mul: uint32(rng.Int31())<<1 | 1, add: uint32(rng.Int31())}
	case s.fibSize > 0:
		in.genFIB(rng)
	default:
		ff := &fixedFlows{}
		seen := map[uint32]bool{}
		for len(ff.keys) < s.flows {
			src := 10<<24 | uint32(rng.Intn(1<<24))
			if seen[src] {
				continue
			}
			seen[src] = true
			ff.keys = append(ff.keys, flowKey{
				src: src, dst: 20<<24 | uint32(rng.Intn(1<<24)),
				sport: uint16(1024 + rng.Intn(60000)), dport: uint16(1 + rng.Intn(65000)),
			})
			ff.egr = append(ff.egr, 1)
		}
		ff.order = shuffled(rng, s.flows)
		in.traffic = ff
	}
	if s.fibSize == 0 {
		// Churn on a small FIB toggles /24s under 198.18.0.0/15, which
		// no flow addresses; each starts withdrawn.
		for i := 0; i < 512; i++ {
			in.churn = append(in.churn, route{addr: 198<<24 | 18<<16 | uint32(i)<<8, len: 24, out: 1})
			in.churnIn = append(in.churnIn, false)
		}
	}
	for _, f := range trafficgen.FlowLikeFilters(rng, s.flowFilters, false) {
		in.filters = append(in.filters, f.String())
	}
	return in
}

// genFIB builds fibchurn's table, its flows and its churn pool. The
// expected egress of every flow is computed here by an independent
// longest-prefix match over the generated routes.
func (in *inputs) genFIB(rng *rand.Rand) {
	total := 0
	for _, pl := range prefixLens {
		total += pl.weight
	}
	type pfx struct {
		addr uint32
		len  int
	}
	table := make(map[pfx]int32, in.fibSize)
	for len(in.routes) < in.fibSize+1 {
		l := drawLen(rng, total)
		a := rng.Uint32() & maskOf(l)
		if !unicast(a) {
			continue
		}
		k := pfx{a, l}
		if _, dup := table[k]; dup {
			continue
		}
		out := int32(1 + rng.Intn(in.egress))
		table[k] = out
		in.routes = append(in.routes, route{addr: a, len: l, out: out})
	}
	lpm := func(dst uint32) (int32, pfx) {
		for l := 32; l >= 8; l-- {
			k := pfx{dst & maskOf(l), l}
			if out, ok := table[k]; ok {
				return out, k
			}
		}
		return 1, pfx{}
	}
	// Flows aim at hosts under uniformly chosen prefixes, so their
	// destinations spread over the whole table.
	ff := &fixedFlows{}
	covered := map[pfx]bool{}
	for len(ff.keys) < in.flows {
		r := in.routes[1+rng.Intn(len(in.routes)-1)]
		dst := r.addr | rng.Uint32()&^maskOf(r.len)
		if dst&0xff == 0 || dst&0xff == 0xff {
			continue
		}
		out, _ := lpm(dst)
		for l := 32; l >= 8; l-- {
			covered[pfx{dst & maskOf(l), l}] = true
		}
		ff.keys = append(ff.keys, flowKey{
			src: 10<<24 | uint32(len(ff.keys))<<4 | uint32(rng.Intn(16)), dst: dst,
			sport: uint16(1024 + rng.Intn(60000)), dport: uint16(1 + rng.Intn(65000)),
		})
		ff.egr = append(ff.egr, out)
	}
	ff.order = shuffled(rng, in.flows)
	in.traffic = ff
	// The churn pool: table prefixes of /16 or longer that cover no
	// flow destination, in a seeded order; each starts announced.
	var pool []route
	for _, r := range in.routes[1:] {
		if r.len >= 16 && !covered[pfx{r.addr, r.len}] {
			pool = append(pool, r)
		}
	}
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].addr != pool[j].addr {
			return pool[i].addr < pool[j].addr
		}
		return pool[i].len < pool[j].len
	})
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > 4096 {
		pool = pool[:4096]
	}
	in.churn = pool
	in.churnIn = make([]bool, len(pool))
	for i := range in.churnIn {
		in.churnIn[i] = true
	}
}

func shuffled(rng *rand.Rand, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// The benchmark's datagram: a minimum-size UDP/IPv4 packet, 46 bytes of
// IP (a 64-byte Ethernet frame), whose 18-byte payload carries a magic
// word, the packet's sequence number and its flow number.
const (
	dgramLen   = 46
	ipHdrLen   = 20
	udpHdrLen  = 8
	payloadOff = ipHdrLen + udpHdrLen
	magic      = 0x52424E43 // "RBNC"
	sendTTL    = 64
)

// writeDatagram fills b (at least dgramLen bytes) with packet seq of
// flow f and returns the datagram.
func writeDatagram(b []byte, k flowKey, seq uint64, f uint32) []byte {
	b = b[:dgramLen]
	b[0], b[1] = 0x45, 0
	binary.BigEndian.PutUint16(b[2:], dgramLen)
	binary.BigEndian.PutUint16(b[4:], uint16(seq))
	binary.BigEndian.PutUint16(b[6:], 0)
	b[8], b[9] = sendTTL, 17
	binary.BigEndian.PutUint16(b[10:], 0)
	binary.BigEndian.PutUint32(b[12:], k.src)
	binary.BigEndian.PutUint32(b[16:], k.dst)
	binary.BigEndian.PutUint16(b[10:], ^fold(sum16(0, b[:ipHdrLen])))
	u := b[ipHdrLen:]
	binary.BigEndian.PutUint16(u[0:], k.sport)
	binary.BigEndian.PutUint16(u[2:], k.dport)
	binary.BigEndian.PutUint16(u[4:], dgramLen-ipHdrLen)
	binary.BigEndian.PutUint16(u[6:], 0)
	p := b[payloadOff:]
	binary.BigEndian.PutUint32(p[0:], magic)
	binary.BigEndian.PutUint64(p[4:], seq)
	binary.BigEndian.PutUint32(p[12:], f)
	p[16], p[17] = 0, 0
	cs := ^fold(udpSum(b))
	if cs == 0 {
		cs = 0xffff
	}
	binary.BigEndian.PutUint16(u[6:], cs)
	return b
}

func sum16(s uint32, b []byte) uint32 {
	for i := 0; i+1 < len(b); i += 2 {
		s += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		s += uint32(b[len(b)-1]) << 8
	}
	return s
}

func fold(s uint32) uint16 {
	for s>>16 != 0 {
		s = s&0xffff + s>>16
	}
	return uint16(s)
}

// udpSum is the one's-complement sum of the UDP pseudo-header and
// segment of an IPv4 datagram.
func udpSum(b []byte) uint32 {
	seg := b[ipHdrLen:]
	s := sum16(0, b[12:20])
	s += 17 + uint32(len(seg))
	return sum16(s, seg)
}

// check outcomes of a delivered datagram.
const (
	pktGood = iota
	pktCorrupt
	pktMisrouted
)

// verify checks one delivered datagram: length, IPv4 header checksum,
// TTL reduced by exactly one, UDP checksum, magic, that the tuple is
// the one its flow number names, and that it left on the egress
// interface the FIB must choose. It returns the outcome and the
// packet's sequence number.
func verify(b []byte, tr traffic, egress int32) (int, uint64) {
	if len(b) != dgramLen || b[0] != 0x45 || b[9] != 17 ||
		binary.BigEndian.Uint16(b[2:]) != dgramLen || fold(sum16(0, b[:ipHdrLen])) != 0xffff ||
		b[8] != sendTTL-1 || fold(udpSum(b)) != 0xffff {
		return pktCorrupt, 0
	}
	p := b[payloadOff:]
	if binary.BigEndian.Uint32(p) != magic {
		return pktCorrupt, 0
	}
	seq := binary.BigEndian.Uint64(p[4:])
	f := binary.BigEndian.Uint32(p[12:])
	k := tr.key(f)
	if binary.BigEndian.Uint32(b[12:]) != k.src || binary.BigEndian.Uint32(b[16:]) != k.dst ||
		binary.BigEndian.Uint16(b[20:]) != k.sport || binary.BigEndian.Uint16(b[22:]) != k.dport {
		return pktCorrupt, seq
	}
	if tr.egress(f) != egress {
		return pktMisrouted, seq
	}
	return pktGood, seq
}

// seqOf reads the sequence number of a benchmark datagram, or false.
func seqOf(b []byte) (uint64, bool) {
	if len(b) < dgramLen || binary.BigEndian.Uint32(b[payloadOff:]) != magic {
		return 0, false
	}
	return binary.BigEndian.Uint64(b[payloadOff+4:]), true
}
