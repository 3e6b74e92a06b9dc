package netdev

import (
	"testing"

	"github.com/routerplugins/eisr/internal/pkt"
)

// rung reports whether the doorbell holds a token, consuming it.
func rung(bell Doorbell) bool {
	select {
	case <-bell:
		return true
	default:
		return false
	}
}

// Every successful RX-ring enqueue rings the doorbell; a refused one
// does not, and a full doorbell never blocks the enqueuer.
func TestDoorbellRingsOnEveryEnqueue(t *testing.T) {
	a := NewInterface(0, Config{RxRing: 2})
	b := NewInterface(1, Config{})
	Connect(a, b)
	bell := NewDoorbell()
	a.SetDoorbell(bell)
	data := buildUDP(t, 10)

	if err := a.Inject(data); err != nil || !rung(bell) {
		t.Fatalf("Inject: err %v or the doorbell stayed silent", err)
	}
	p, err := pkt.NewPacket(append([]byte(nil), data...), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.InjectPacket(p); err != nil || !rung(bell) {
		t.Fatal("InjectPacket did not ring the doorbell")
	}
	// The ring is full: both refusals leave the bell silent.
	if err := a.Inject(data); err != ErrRingFull || rung(bell) {
		t.Fatalf("refused Inject: err %v", err)
	}
	if err := a.InjectPacket(p); err != ErrRingFull || rung(bell) {
		t.Fatalf("refused InjectPacket: err %v", err)
	}
	a.Poll()
	a.Poll()
	// The peer arm of Transmit enqueues on a, so a's bell rings.
	q, err := pkt.NewPacket(append([]byte(nil), data...), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Transmit(q); err != nil || !rung(bell) {
		t.Fatal("peer Transmit did not ring the receiver's doorbell")
	}
	// A token the loop has not consumed absorbs further rings.
	if err := a.Inject(data); err != nil {
		t.Fatal(err)
	}
	if !rung(bell) || rung(bell) {
		t.Fatal("a full doorbell should hold exactly one token")
	}
}

// Zero-alloc guard: the RX enqueue with a doorbell installed, both
// the ringing send and the skipped send on a full bell.
func TestInjectPacketDoorbellZeroAlloc(t *testing.T) {
	ifc := NewInterface(0, Config{})
	bell := NewDoorbell()
	ifc.SetDoorbell(bell)
	p, err := pkt.NewPacket(buildUDP(t, 64), 0)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for k := 0; k < 2; k++ {
			if err := ifc.InjectPacket(p); err != nil {
				t.Fatal(err)
			}
			if ifc.Poll() != p {
				t.Fatal("InjectPacket did not reach the ring")
			}
		}
		if !rung(bell) {
			t.Fatal("doorbell silent")
		}
	})
	if allocs != 0 {
		t.Fatalf("InjectPacket+Poll with a doorbell allocated %v per op", allocs)
	}
}
