package eisr

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/routerplugins/eisr/internal/pkt"
)

// Spaced bursts into an idle running router are picked up by doorbell
// wakes, and the wake counters reach both "pmgr stats" (the core
// section of the stats report) and the /metrics exposition. Every
// burst's enqueue rings the bell, so each adds at least one bell wake
// whichever wake forwarded it; no latency is asserted.
func TestWakeCountersOnRunningRouter(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("Workers=%d", workers), func(t *testing.T) {
			r, err := New(Options{VerifyChecksums: true, Telemetry: true, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			in, err := r.AddInterface(0, "lan", "192.0.2.1")
			if err != nil {
				t.Fatal(err)
			}
			out, err := r.AddInterface(1, "wan", "")
			if err != nil {
				t.Fatal(err)
			}
			if err := r.AddRoute("0.0.0.0/0 dev 1"); err != nil {
				t.Fatal(err)
			}
			data, err := pkt.BuildUDP(pkt.UDPSpec{
				Src: pkt.MustParseAddr("10.0.0.1"), Dst: pkt.MustParseAddr("20.0.0.1"),
				SrcPort: 5, DstPort: 9, Payload: []byte("wake"),
			})
			if err != nil {
				t.Fatal(err)
			}
			r.Start()
			defer r.Stop()
			await := func(what string, cond func() bool) {
				t.Helper()
				for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%s: core %+v", what, r.Core.Stats())
					}
				}
			}
			const bursts, perBurst = 5, 4
			for b := 1; b <= bursts; b++ {
				time.Sleep(2 * time.Millisecond) // let the loop go idle and park
				for i := 0; i < perBurst; i++ {
					if err := in.Inject(data); err != nil {
						t.Fatal(err)
					}
				}
				await(fmt.Sprintf("burst %d forwarded", b), func() bool {
					return out.Stats().TxPackets >= uint64(b*perBurst)
				})
				await(fmt.Sprintf("burst %d bell wake", b), func() bool {
					return r.Core.Stats().WakeBell >= uint64(b)
				})
			}
			js, err := json.Marshal(r.StatsReport())
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(js), `"WakeBell":`) || !strings.Contains(string(js), `"WakeTimer":`) {
				t.Errorf("stats report lacks wake counters: %s", js)
			}
			var sb strings.Builder
			if err := r.Telemetry.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				`eisr_core_wakeups_total{cause="bell"}`,
				`eisr_core_wakeups_total{cause="timer"}`,
			} {
				if !strings.Contains(sb.String(), want) {
					t.Errorf("exposition missing %q", want)
				}
			}
		})
	}
}
