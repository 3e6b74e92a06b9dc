package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload briefly at a small size, timed and
// traced, and checks that each run reports every metric of its kind
// with its unit and, on the in-process workloads, that no operation
// failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, s := range specs {
		for _, trace := range []bool{false, true} {
			res, err := run(config{workload: s.name, seed: 7, seconds: 1, trace: trace, workDir: t.TempDir(), small: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", s.name, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", s.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", s.name, trace, d.name, m, d.unit)
				}
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d, failures %+v", s.name, trace, res.Correct, res.Attempted, res.detail.Failures)
			}
			if !s.wire && res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %+v, loss %+v",
					s.name, trace, res.Failed, res.Attempted, res.detail.Failures, res.detail.Loss)
			}
			if trace {
				if r := res.Metrics["trace.stage_sum_residual_pct"].Value; r > residualTolerancePct || r < -residualTolerancePct {
					t.Errorf("%s: stage-sum residual %.3f%% outside ±%.1f%%", s.name, r, residualTolerancePct)
				}
			}
		}
	}
}

// TestSameSeedSameInputs checks that the seed alone fixes a workload's
// inputs.
func TestSameSeedSameInputs(t *testing.T) {
	for _, s := range specs {
		a, b := newInputs(s, 3), newInputs(s, 3)
		if len(a.routes) != len(b.routes) || len(a.churn) != len(b.churn) || len(a.filters) != len(b.filters) {
			t.Fatalf("%s: input sizes differ between two generations", s.name)
		}
		for j := uint64(0); j < 4096; j++ {
			fa, fb := a.traffic.flowOf(j), b.traffic.flowOf(j)
			if fa != fb || a.traffic.key(fa) != b.traffic.key(fb) || a.traffic.egress(fa) != b.traffic.egress(fb) {
				t.Fatalf("%s: packet %d differs between two generations", s.name, j)
			}
		}
		for i := range a.routes {
			if a.routes[i] != b.routes[i] {
				t.Fatalf("%s: route %d differs", s.name, i)
			}
		}
	}
}

// TestVerify checks the sink's verdicts on a good datagram and on
// each kind of damage it must catch.
func TestVerify(t *testing.T) {
	tr := newInputs(specs[0], 1).traffic
	f := tr.flowOf(5)
	fresh := func() []byte {
		b := writeDatagram(make([]byte, dgramLen), tr.key(f), 5, f)
		b[8]-- // the router's TTL decrement, with the checksum fixed up
		b[10], b[11] = 0, 0
		cs := ^fold(sum16(0, b[:ipHdrLen]))
		b[10], b[11] = byte(cs>>8), byte(cs)
		return b
	}
	if got, seq := verify(fresh(), tr, 1); got != pktGood || seq != 5 {
		t.Fatalf("good datagram: outcome %d seq %d", got, seq)
	}
	if got, _ := verify(fresh(), tr, 2); got != pktMisrouted {
		t.Errorf("wrong egress: outcome %d, want misrouted", got)
	}
	damage := map[string]func(b []byte){
		"payload":      func(b []byte) { b[dgramLen-3] ^= 1 },
		"ttl":          func(b []byte) { b[8]++ },
		"ip checksum":  func(b []byte) { b[11] ^= 1 },
		"magic":        func(b []byte) { b[payloadOff] ^= 1 },
		"length":       func(b []byte) { b[3]++ },
		"flow address": func(b []byte) { b[15] ^= 1 },
	}
	for name, hurt := range damage {
		b := fresh()
		hurt(b)
		if got, _ := verify(b, tr, 1); got != pktCorrupt {
			t.Errorf("%s damaged: outcome %d, want corrupt", name, got)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json at the repository root
// names workloads and exactly the metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if os.IsNotExist(err) {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json may leave out a workload too unsteady to gate on
	// (README.md), but lists the others in the program's order.
	next := 0
	for _, w := range bj.Workloads {
		for next < len(specs) && specs[next].name != w.Name {
			next++
		}
		if next == len(specs) {
			t.Errorf("workload %s in BENCHMARK.json is not one of %v, in that order", w.Name, workloadNames())
			break
		}
		next++
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v here", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
