package ipcore

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/netdev"
	"github.com/routerplugins/eisr/internal/pkt"
)

// The event-driven run loop: RX enqueues and pool flushes ring the
// router's doorbell, and an idle Run parks on it. These tests lengthen
// the fallback timer to an hour, so a packet that arrives at all was
// picked up by a doorbell wake.

// udpBytes builds one wire datagram routed out of interface 1.
func udpBytes(t *testing.T, src string) []byte {
	t.Helper()
	data, err := pkt.BuildUDP(pkt.UDPSpec{
		Src: pkt.MustParseAddr(src), Dst: pkt.MustParseAddr("20.0.0.1"),
		SrcPort: 7, DstPort: 9, Payload: []byte("bell"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// bellRig builds a router forwarding if0 → if1 → sink, sequential for
// workers ≤ 1 and with a worker pool otherwise, whose run loop only
// wakes on its doorbell.
func bellRig(t *testing.T, workers int) *testRig {
	t.Helper()
	var rig *testRig
	if workers <= 1 {
		rig = newRig(t, ModePlugin, nil)
	} else {
		rig = newParallelRig(t, workers, nil)
	}
	rig.r.idle = time.Hour
	return rig
}

// runLoop starts rig's Run loop and returns its stop function, which
// closes done and fails the test unless Run returns within 5s.
func runLoop(t *testing.T, rig *testRig) (stop func()) {
	t.Helper()
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		rig.r.Run(done)
	}()
	return func() {
		t.Helper()
		close(done)
		select {
		case <-exited:
		case <-time.After(5 * time.Second):
			t.Fatal("Run did not return after done closed")
		}
	}
}

// awaitSink waits until the sink has received n packets.
func awaitSink(t *testing.T, rig *testRig, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for got := 0; got < n; {
		if rig.sink.Poll() != nil {
			got++
			continue
		}
		if time.Now().After(deadline) {
			st := rig.r.Stats()
			t.Fatalf("sink got %d of %d packets (bell wakes %d, timer wakes %d)",
				got, n, st.WakeBell, st.WakeTimer)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func forWorkers(t *testing.T, f func(t *testing.T, workers int)) {
	for _, w := range []int{1, 2} {
		t.Run(fmt.Sprintf("Workers=%d", w), func(t *testing.T) { f(t, w) })
	}
}

// Step's return value counts transmitted packets too: a burst queued
// for one egress beyond the 64-packet drain budget keeps Step nonzero
// until the output queue is empty, so a loop that stops (or parks) on
// zero never strands a backlog.
func TestStepDrainsOutputBacklog(t *testing.T) {
	rig := newRig(t, ModeBestEffort, nil)
	const burst = 200
	data := udpBytes(t, "10.0.0.1")
	for i := 0; i < burst; i++ {
		if err := rig.in.Inject(data); err != nil {
			t.Fatal(err)
		}
	}
	steps := 0
	for rig.r.Step() != 0 {
		if steps++; steps > burst {
			t.Fatal("Step never reported quiescence")
		}
	}
	if got := rig.out.Stats().TxPackets; got != burst {
		t.Fatalf("Step returned 0 with %d of %d packets transmitted", got, burst)
	}
	if got := rig.sink.RxLen(); got != burst {
		t.Fatalf("sink holds %d of %d packets", got, burst)
	}
	// 200 packets at 64 per drain: four nonzero Steps.
	if steps != 4 {
		t.Fatalf("backlog drained over %d nonzero Steps, want 4", steps)
	}
}

// armedInjector is a Drainer that never holds a packet. The first time
// the run loop drains outputs it injects one datagram into an
// interface — after that iteration's RX polls came up empty and before
// the loop parks, the window a lost wakeup would fall into.
type armedInjector struct {
	ifc   *netdev.Interface
	data  []byte
	fired atomic.Bool
	err   atomic.Value
}

func (a *armedInjector) Drain() *pkt.Packet {
	if a.fired.CompareAndSwap(false, true) {
		if err := a.ifc.Inject(a.data); err != nil {
			a.err.Store(err)
		}
	}
	return nil
}

func (a *armedInjector) Backlog() int { return 0 }

func TestDoorbellNoLostWakeup(t *testing.T) {
	forWorkers(t, func(t *testing.T, workers int) {
		rig := bellRig(t, workers)
		inj := &armedInjector{ifc: rig.in, data: udpBytes(t, "10.0.0.2")}
		rig.r.RegisterDrainer(1, inj)
		stop := runLoop(t, rig)
		defer stop()
		awaitSink(t, rig, 1)
		if err := inj.err.Load(); err != nil {
			t.Fatal(err)
		}
		st := rig.r.Stats()
		if st.WakeBell == 0 || st.WakeTimer != 0 {
			t.Fatalf("wakes: bell %d, timer %d; want the doorbell alone", st.WakeBell, st.WakeTimer)
		}
	})
}

// parkLoop forwards one packet through the running loop and gives it
// time to go idle: with the timer an hour out, the loop then sits
// parked on the doorbell.
func parkLoop(t *testing.T, rig *testRig) {
	t.Helper()
	if err := rig.in.Inject(udpBytes(t, "10.0.0.3")); err != nil {
		t.Fatal(err)
	}
	awaitSink(t, rig, 1)
	time.Sleep(10 * time.Millisecond)
}

func TestDoorbellStopWhileParked(t *testing.T) {
	forWorkers(t, func(t *testing.T, workers int) {
		rig := bellRig(t, workers)
		stop := runLoop(t, rig)
		parkLoop(t, rig)
		stop()
	})
}

func TestDoorbellInterfaceAddedAfterStart(t *testing.T) {
	forWorkers(t, func(t *testing.T, workers int) {
		rig := bellRig(t, workers)
		stop := runLoop(t, rig)
		defer stop()
		parkLoop(t, rig)
		bells := rig.r.Stats().WakeBell
		late := netdev.NewInterface(3, netdev.Config{})
		rig.r.AddInterface(late)
		if err := late.Inject(udpBytes(t, "10.0.0.4")); err != nil {
			t.Fatal(err)
		}
		awaitSink(t, rig, 1)
		if st := rig.r.Stats(); st.WakeBell == bells {
			t.Fatalf("the late interface's packet came without a bell wake: %+v", st)
		}
	})
}
