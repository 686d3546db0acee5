package cluster

// The sim ends a run on LoadBalancer.Terminated, as LBServer.Serve does,
// so every fault schedule here is also a schedule for the probe waves.

import (
	"strconv"
	"strings"
	"testing"

	"cloud9/internal/engine"
	"cloud9/internal/obs"
)

// TestSimEndsByTheBalancersRule runs one schedule of each kind the sim
// can draw — and one that has an LB restart, a worker crash inside the
// restart's re-hello window and a peer outage overlap — to exhaustion: each must land on the undisturbed count
// with the balancer's journal closing on the terminated event, two waves
// or more behind it and the job sums in balance. RunSim sets Exhausted
// nowhere else, so what holds here holds for every exhaustive sim run.
func TestSimEndsByTheBalancersRule(t *testing.T) {
	for name, shape := range map[string]func(*SimConfig){
		"undisturbed":     func(*SimConfig) {},
		"worker crash":    func(c *SimConfig) { c.Crashes = []SimEvent{{Tick: 4, Worker: 1}} },
		"retire and join": func(c *SimConfig) { c.Retires, c.Joins = []SimEvent{{Tick: 3, Worker: 2}}, []int{5} },
		"lb failover":     func(c *SimConfig) { c.CrashLB = &SimCrashLB{Tick: 5, RestartTicks: 2} },
		"peer outage":     func(c *SimConfig) { c.PeerDownFrom = 1 },
		"depth":           func(c *SimConfig) { c.Balancer.DataPlane = DataPlaneDepth },
		"portfolio":       func(c *SimConfig) { c.Balancer.Portfolio = []string{"dfs", "random-path"} },
		// A worker that dies while no balancer is up is the double fault
		// (TestSimLBFailoverWithWorkerCrash); this one dies the tick after
		// the restart, once it has re-dialed.
		"crash, failover and outage at once": func(c *SimConfig) {
			c.Crashes = []SimEvent{{Tick: 8, Worker: 1}}
			c.CrashLB = &SimCrashLB{Tick: 5, RestartTicks: 2}
			c.PeerDownFrom, c.PeerDownTo = 3, 9
		},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := SimConfig{
				Workers: 3, Entry: "main", NewInterp: mkInterp(t, clusterTarget),
				Engine:  engine.Config{MaxStateSteps: 1_000_000},
				Quantum: 200, LeaseTicks: 3, MaxTicks: 10_000,
			}
			shape(&cfg)
			res, err := RunSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Exhausted || res.Final.Paths != 64 || res.Final.Errors != 1 {
				t.Fatalf("exhausted=%v paths=%d errors=%d after %d ticks, want the undisturbed 64/1",
					res.Exhausted, res.Final.Paths, res.Final.Errors, res.Ticks)
			}
			last := res.Journal[len(res.Journal)-1]
			if last.Type != evTerminated {
				t.Fatalf("the run's last journal event is %s %v, want %s", last.Type, last.Fields, evTerminated)
			}
			if waves, _ := strconv.Atoi(last.Fields["waves"]); waves < 2 {
				t.Fatalf("terminated after %d waves: %v", waves, last.Fields)
			}
			if last.Fields["sent"] != last.Fields["recv"] {
				t.Fatalf("terminated out of balance: %v", last.Fields)
			}
			if strings.Contains(name, "at once") && (res.Evictions != 1 || res.LB.Readmits != 3 ||
				res.Obs.Counter(obs.MClusterPeerFallbacks) == 0) {
				t.Fatalf("evictions=%d readmits=%d peer fallbacks=%d: the three faults did not all land",
					res.Evictions, res.LB.Readmits, res.Obs.Counter(obs.MClusterPeerFallbacks))
			}
			if cfg.CrashLB != nil && res.LB.Abandoned != 0 {
				t.Fatalf("a single restart abandoned %d members", res.LB.Abandoned)
			}
		})
	}
}

// TestSimRejectsAFalseVerdict: the check RunSim holds the balancer's
// verdict to. A worker with its seed job still queued contradicts it; the
// same worker run dry does not.
func TestSimRejectsAFalseVerdict(t *testing.T) {
	_, ep := testMailbox(0)
	w, err := NewWorker(WorkerConfig{
		ID: 0, Seed: true, Entry: "main", NewInterp: mkInterp(t, clusterTarget),
		Engine: engine.Config{MaxStateSteps: 1_000_000},
	}, ep)
	if err != nil {
		t.Fatal(err)
	}
	alive := map[int]*Worker{0: w}
	if err := verdictHolds(alive); err == nil || !strings.Contains(err.Error(), "worker 0 holds 1 candidates") {
		t.Fatalf("a worker holding its seed job passed for done: %v", err)
	}
	for !w.Exp.Done() {
		if _, err := w.Exp.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := verdictHolds(alive); err != nil {
		t.Fatalf("an exhausted worker contradicts the verdict: %v", err)
	}
}
