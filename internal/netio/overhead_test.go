package netio

// Overhead guard (run by `make bench-smoke`): the steady-state wire
// paths must not allocate per packet. RX: deliver — parse the key,
// reset the slot's embedded packet in place, inject into the ring,
// count, ring the router's doorbell. TX: TransmitWire (buffer grab +
// copy + queue) and txOne (socket write + recycle). The alloc
// assertions run in every `go test`; the timing log is gated behind
// EISR_BENCH_SMOKE=1 like the other overhead guards.

import (
	"net"
	"os"
	"testing"

	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pkt"
)

// newRxRig builds a link with one RX slot preloaded with a wire
// datagram, ready for repeated deliver calls.
func newRxRig(tb testing.TB) (*netdev.Interface, *UDPLink, *rxSlot, int) {
	tb.Helper()
	ifc := netdev.NewInterface(0, netdev.Config{})
	l, err := NewUDPLink(ifc, Config{Local: "127.0.0.1:0"})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(l.Stop)
	data := buildUDP(tb, []byte("steady-state"))
	slot := &l.slots[0]
	n := copy(slot.buf, data)
	return ifc, l, slot, n
}

func TestNetioRxDeliverZeroAlloc(t *testing.T) {
	ifc, l, slot, n := newRxRig(t)
	// With the router's doorbell installed, as on a live router: the
	// enqueue also rings it (drained here so every delivery sends).
	bell := netdev.NewDoorbell()
	ifc.SetDoorbell(bell)
	allocs := testing.AllocsPerRun(1000, func() {
		l.deliver(slot, n)
		if ifc.Poll() == nil {
			t.Fatal("deliver did not reach the ring")
		}
		select {
		case <-bell:
		default:
			t.Fatal("deliver did not ring the doorbell")
		}
	})
	if allocs != 0 {
		t.Fatalf("RX deliver allocated %v per packet", allocs)
	}
}

// newTxRig builds a link aimed at a live sink socket so wire writes
// succeed, without starting the drain goroutine (the test drives txOne
// directly to measure the per-packet work deterministically).
func newTxRig(tb testing.TB) (*UDPLink, *pkt.Packet) {
	tb.Helper()
	ifc := netdev.NewInterface(0, netdev.Config{})
	l, err := NewUDPLink(ifc, Config{Local: "127.0.0.1:0"})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(l.Stop)
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sink.Close() })
	if err := l.SetPeer(sink.LocalAddr().String()); err != nil {
		tb.Fatal(err)
	}
	p := &pkt.Packet{Data: buildUDP(tb, []byte("steady-state"))}
	return l, p
}

func TestNetioTxZeroAlloc(t *testing.T) {
	l, p := newTxRig(t)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := l.TransmitWire(p); err != nil {
			t.Fatal(err)
		}
		l.transmitOne(<-l.txq)
	})
	if allocs != 0 {
		t.Fatalf("TX path allocated %v per packet", allocs)
	}
	if s := l.Stats(); s.TxErrors != 0 {
		t.Fatalf("wire writes failed during the guard: %+v", s)
	}
}

func BenchmarkNetioRxDeliver(b *testing.B) {
	ifc, l, slot, n := newRxRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.deliver(slot, n)
		ifc.Poll()
	}
}

func BenchmarkNetioTx(b *testing.B) {
	l, p := newTxRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if l.TransmitWire(p) == nil {
			l.transmitOne(<-l.txq)
		}
	}
}

// The bench-smoke form: assert 0 allocs under the benchmark harness and
// log the per-packet cost of both wire paths.
func TestBenchSmokeNetioOverhead(t *testing.T) {
	if os.Getenv("EISR_BENCH_SMOKE") == "" {
		t.Skip("timing guard; run via make bench-smoke (EISR_BENCH_SMOKE=1)")
	}
	rx := testing.Benchmark(BenchmarkNetioRxDeliver)
	if rx.AllocsPerOp() != 0 {
		t.Fatalf("netio RX deliver: %d allocs/op, want 0", rx.AllocsPerOp())
	}
	t.Logf("netio RX deliver: %.1f ns/op, %d allocs/op",
		float64(rx.T.Nanoseconds())/float64(rx.N), rx.AllocsPerOp())

	tx := testing.Benchmark(BenchmarkNetioTx)
	if tx.AllocsPerOp() != 0 {
		t.Fatalf("netio TX: %d allocs/op, want 0", tx.AllocsPerOp())
	}
	t.Logf("netio TX (copy+queue+write): %.1f ns/op, %d allocs/op",
		float64(tx.T.Nanoseconds())/float64(tx.N), tx.AllocsPerOp())
}
