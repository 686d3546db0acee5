package cluster

// Load-balancer restart tests: the acceptance bar for a balancer that
// keeps no replica is that kill -9 of the LB mid-run, followed by an empty
// restart the workers re-dial, yields exactly the same explored path
// count as an undisturbed run, with nothing reported abandoned; that what
// a restart cannot rebuild is reported, never silently dropped; and that
// a restart is bit-for-bit deterministic across identically-seeded runs.

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"
	"time"

	"cloud9/internal/engine"
	"cloud9/internal/obs"
)

func simFailoverRun(t *testing.T, crashLB *SimCrashLB, crashes []SimEvent) *SimResult {
	t.Helper()
	return simDataPlaneRun(t, DataPlaneP2P, 0, 0, crashLB, crashes)
}

// journalIdx returns the index of the first event of each requested type
// (-1 if absent).
func journalIdx(evs []obs.Event, types ...string) []int {
	out := make([]int, len(types))
	for i := range out {
		out[i] = -1
	}
	for i, ev := range evs {
		for j, typ := range types {
			if out[j] < 0 && ev.Type == typ {
				out[j] = i
			}
		}
	}
	return out
}

// countEvents counts the journal events of one type.
func countEvents(evs []obs.Event, typ string) int {
	n := 0
	for _, ev := range evs {
		if ev.Type == typ {
			n++
		}
	}
	return n
}

// exactRestart fails t unless res landed on the undisturbed 64/1 with
// nothing abandoned.
func exactRestart(t *testing.T, what string, res *SimResult) {
	t.Helper()
	if !res.Exhausted || res.Final.Paths != 64 || res.Final.Errors != 1 {
		t.Fatalf("%s: exhausted=%v paths=%d errors=%d after %d ticks, want the undisturbed 64/1",
			what, res.Exhausted, res.Final.Paths, res.Final.Errors, res.Ticks)
	}
	if res.LB.Abandoned != 0 || countEvents(res.Journal, obs.EvWorkAbandoned) != 0 {
		t.Fatalf("%s: abandoned=%d, want 0: %+v", what, res.LB.Abandoned, res.Journal)
	}
	if got := res.Obs.Counter(obs.MEnginePaths); got != res.Final.Paths {
		t.Fatalf("%s: fleet paths counter = %d, accounting snapshot = %d", what, got, res.Final.Paths)
	}
}

// TestSimLBFailoverExactPaths kills the LB at tick 5 — everything it held
// dies with it — and requires the restart to rebuild the run from the
// three workers' re-hellos and finish with the undisturbed totals.
func TestSimLBFailoverExactPaths(t *testing.T) {
	undisturbed := simFailoverRun(t, nil, nil)
	exactRestart(t, "undisturbed", undisturbed)

	res := simFailoverRun(t, &SimCrashLB{Tick: 5, RestartTicks: 2}, nil)
	exactRestart(t, "restart", res)
	if res.LB.Readmits != 3 || res.Evictions != 0 || res.LB.ResyncPending {
		t.Fatalf("readmits=%d evictions=%d window open=%v, want 3/0/false",
			res.LB.Readmits, res.Evictions, res.LB.ResyncPending)
	}
	// The journal is the restart's own: three readmits, then the window's
	// close, then the run's end.
	if n := countEvents(res.Journal, obs.EvWorkerJoin); n != 3 {
		t.Fatalf("restarted journal records %d joins, want the 3 readmits", n)
	}
	idx := journalIdx(res.Journal, obs.EvWorkerJoin, obs.EvResync, evTerminated)
	if idx[0] < 0 || idx[1] < idx[0] || idx[2] < idx[1] {
		t.Fatalf("readmit/resync/terminated missing or out of order: %v\n%+v", idx, res.Journal)
	}
	// Every worker's first status after the restart is a full one, so the
	// window closes on the restart tick's own round, not on its 2×Lease
	// deadline.
	if got := res.Journal[idx[1]]; got.T != simTick(7).UnixNano() || got.Fields["stale"] != "0" {
		t.Fatalf("resync at %v %v, want tick 7 with nothing stale", time.Unix(0, got.T).Sub(simTick(0)), got.Fields)
	}
	if got := res.Obs.Counter(obs.MEngineUsefulSteps); got != res.Final.UsefulSteps {
		t.Fatalf("fleet useful counter = %d, accounting snapshot = %d", got, res.Final.UsefulSteps)
	}
	if res.Obs.Counter(obs.MLBReadmits) != 3 || res.Obs.Counter(obs.MLBAbandoned) != 0 {
		t.Fatalf("restart metrics wrong: readmits=%d abandoned=%d",
			res.Obs.Counter(obs.MLBReadmits), res.Obs.Counter(obs.MLBAbandoned))
	}
}

// TestSimLBRestartSweep restarts the balancer at every tick of the
// undisturbed run, under both data planes: every single fault must land
// on the undisturbed count with nothing abandoned.
func TestSimLBRestartSweep(t *testing.T) {
	for _, plane := range []string{DataPlaneP2P, DataPlaneDepth} {
		undisturbed := simDataPlaneRun(t, plane, 0, 0, nil, nil)
		exactRestart(t, plane+" undisturbed", undisturbed)
		for tick := 1; tick <= undisturbed.Ticks; tick++ {
			res := simDataPlaneRun(t, plane, 0, 0, &SimCrashLB{Tick: tick}, nil)
			exactRestart(t, plane+" restart at tick "+strconv.Itoa(tick), res)
		}
	}
}

// TestSimLBFailoverDeterministic runs the same LB kill twice and
// requires byte-identical journals and identical finals — the restart
// itself is reproducible.
func TestSimLBFailoverDeterministic(t *testing.T) {
	dump := func(res *SimResult) []byte {
		var buf bytes.Buffer
		if err := obs.WriteJSONL(&buf, res.Journal); err != nil {
			t.Fatal(err)
		}
		for _, w := range res.Workers {
			if err := obs.WriteJSONL(&buf, w.Exp.Journal.All()); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	cl := &SimCrashLB{Tick: 5, RestartTicks: 2}
	a := simFailoverRun(t, cl, nil)
	b := simFailoverRun(t, cl, nil)
	if !a.Exhausted || !b.Exhausted {
		t.Fatalf("exhausted: a=%v b=%v", a.Exhausted, b.Exhausted)
	}
	if a.Ticks != b.Ticks || a.Final.Paths != b.Final.Paths ||
		a.Final.UsefulSteps != b.Final.UsefulSteps ||
		a.Final.ReplaySteps != b.Final.ReplaySteps ||
		a.Final.TransfersIssued != b.Final.TransfersIssued {
		t.Fatalf("restart sim not deterministic:\n a=%+v (%d ticks)\n b=%+v (%d ticks)",
			a.Final, a.Ticks, b.Final, b.Ticks)
	}
	da, db := dump(a), dump(b)
	if !bytes.Equal(da, db) {
		t.Fatalf("restart journals differ across identically-seeded runs:\n--- a ---\n%s\n--- b ---\n%s", da, db)
	}
}

// TestSimLBFailoverWithWorkerCrash is the double fault: worker 1 dies at
// tick 4, before its lease lapses, and the LB at tick 5 — nobody who
// outlives the balancer holds worker 1's frontier or its record. The
// restart must say so: worker 1 is named in the survivors' views and
// never re-dials, so it is journaled as work-abandoned and counted, and
// the run still ends. In depth mode the lost member's units are granted
// again and the count stays exact.
func TestSimLBFailoverWithWorkerCrash(t *testing.T) {
	for _, plane := range []string{DataPlaneP2P, DataPlaneDepth} {
		res := simDataPlaneRun(t, plane, 0, 0, &SimCrashLB{Tick: 5, RestartTicks: 2},
			[]SimEvent{{Tick: 4, Worker: 1}})
		if !res.Exhausted {
			t.Fatalf("%s: run did not end", plane)
		}
		if res.LB.Abandoned != 1 || res.Obs.Counter(obs.MLBAbandoned) != 1 {
			t.Fatalf("%s: abandoned=%d (metric %d), want 1", plane, res.LB.Abandoned, res.Obs.Counter(obs.MLBAbandoned))
		}
		at := journalIdx(res.Journal, obs.EvWorkAbandoned)[0]
		if at < 0 || res.Journal[at].Worker != 1 || res.Journal[at].Fields["cause"] != "never-returned" {
			t.Fatalf("%s: no work-abandoned event for worker 1: %+v", plane, res.Journal)
		}
		if plane == DataPlaneDepth && (res.Final.Paths != 64 || res.Final.Errors != 1) {
			t.Fatalf("depth: paths=%d errors=%d, want the exact 64/1", res.Final.Paths, res.Final.Errors)
		}
		if plane == DataPlaneP2P && res.Final.Paths > 64 {
			t.Fatalf("p2p: paths=%d, more than the tree holds", res.Final.Paths)
		}
		if got := res.Obs.Counter(obs.MEnginePaths); got != res.Final.Paths {
			t.Fatalf("%s: fleet paths counter = %d, accounting snapshot = %d", plane, got, res.Final.Paths)
		}
	}
}

// TestSimRestartAfterEmptyRetire retires worker 2 at tick 1, before it
// holds any work, and restarts the balancer later. Its departure leaves
// no frontier, yet the survivors know it departed: the custody batch it
// ships has no jobs but carries its record, and a survivor's ack of it is
// what tells the restart the departure was settled.
func TestSimRestartAfterEmptyRetire(t *testing.T) {
	res, err := RunSim(SimConfig{
		Workers: 3, Entry: "main", NewInterp: mkInterp(t, clusterTarget),
		Engine:  engine.Config{MaxStateSteps: 1_000_000},
		Quantum: 200, LeaseTicks: 3, MaxTicks: 10_000,
		Retires: []SimEvent{{Tick: 1, Worker: 2}},
		CrashLB: &SimCrashLB{Tick: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	exactRestart(t, "restart after an empty retire", res)
	if _, acked := res.LB.ReseatAcked[res.Workers[2].Epoch]; !acked || res.LB.Readmits != 2 {
		t.Fatalf("readmits=%d, acked departures %v: want 2 readmits and worker 2's custody acked",
			res.LB.Readmits, res.LB.ReseatAcked)
	}
}

// TestSimRestartAfterChainedDepartures: worker 1 retires onto worker 0,
// worker 0 retires onto the late joiner 2, and then the balancer dies.
// Worker 1's record now lives only inside worker 0's, which worker 2
// echoes: the restart must unwrap both.
func TestSimRestartAfterChainedDepartures(t *testing.T) {
	res, err := RunSim(SimConfig{
		Workers: 2, Entry: "main", NewInterp: mkInterp(t, clusterTarget),
		Engine:  engine.Config{MaxStateSteps: 1_000_000},
		Quantum: 200, LeaseTicks: 3, MaxTicks: 10_000,
		Retires: []SimEvent{{Tick: 2, Worker: 1}, {Tick: 4, Worker: 0}},
		Joins:   []int{3},
		CrashLB: &SimCrashLB{Tick: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	exactRestart(t, "restart after chained departures", res)
	e0, e1 := res.Workers[0].Epoch, res.Workers[1].Epoch
	outer, ok := res.LB.ReseatAcked[e0]
	if !ok || len(outer.Rec.ReseatAcks) != 1 || outer.Rec.ReseatAcks[0].ID != e1 {
		t.Fatalf("worker 0's custody record %+v does not carry worker 1's ack (epoch %d)", outer, e1)
	}
	inner := outer.Rec.ReseatAcks[0]
	if _, ok := res.LB.ReseatAcked[e1]; !ok {
		t.Fatalf("restart did not adopt worker 1's nested ack (epoch %d)", e1)
	}
	want := outer.Rec.Obs.Counter(obs.MEnginePaths) + inner.Rec.Obs.Counter(obs.MEnginePaths)
	if got := res.LB.GoneObs.Counter(obs.MEnginePaths); got != want || want == 0 {
		t.Fatalf("restart folded %d departed paths, want both records' %d", got, want)
	}
}

// TestResumeTurnsFreshJoinsAway: a fresh join that reaches a resumed
// balancer before any worker re-dialed must not be admitted — it would be
// member 0, the seed, and start a second root — and the first join after
// the window is no seed either.
func TestResumeTurnsFreshJoinsAway(t *testing.T) {
	now := time.Unix(100, 0)
	lb := NewLoadBalancer(DefaultBalancerConfig(), 64)
	lb.resume()
	for i := 0; i < 3; i++ {
		if ack, outs := lb.Admit(Hello{ID: -1, Addr: "new:1"}, now); ack.ID != helloRetry || outs != nil {
			t.Fatalf("fresh join before any re-hello answered %+v %+v, want helloRetry", ack, outs)
		}
	}
	if len(lb.Members) != 0 || lb.NextID != 0 || lb.Joins != 0 {
		t.Fatalf("a turned-away join changed the balancer: members=%v next id %d joins %d",
			lb.memberView(), lb.NextID, lb.Joins)
	}
	// Nothing closes the window before a re-hello, however long it waits.
	lb.ExpireLeases(now.Add(time.Hour))
	if !lb.ResyncPending {
		t.Fatal("the window closed before any worker re-dialed")
	}
	seed := Hello{ID: 0, Epoch: 1, Addr: "a:1", View: map[int]uint64{0: 1}}
	if ack, _ := lb.Admit(seed, now); ack.ID != 0 || !ack.Seed {
		t.Fatalf("the seed's re-hello answered %+v", ack)
	}
	lb.Update(Status{Worker: 0, Epoch: 1, Frontier: &JobTree{}}, now)
	lb.ExpireLeases(now)
	if lb.ResyncPending {
		t.Fatal("the window stayed open after every named member re-reported")
	}
	if ack, _ := lb.Admit(Hello{ID: -1, Addr: "new:1"}, now); ack.ID != 1 || ack.Seed {
		t.Fatalf("join after the window answered %+v, want id 1 and no seed", ack)
	}
}

// TestCheckHello: a re-hello's view and departed set come off the
// network, and one that no worker could have sent is refused.
func TestCheckHello(t *testing.T) {
	big := map[int]uint64{}
	for i := 0; i <= maxHelloEntries; i++ {
		big[i] = uint64(i + 1)
	}
	for name, c := range map[string]struct {
		h  Hello
		ok bool
	}{
		"fresh join":             {Hello{ID: -1}, true},
		"re-hello":               {Hello{ID: 1, Epoch: 2, View: map[int]uint64{0: 1, 1: 2}, Departed: map[int]uint64{2: 3}}, true},
		"negative id in view":    {Hello{ID: 1, Epoch: 2, View: map[int]uint64{-1: 1}}, false},
		"zero epoch in view":     {Hello{ID: 1, Epoch: 2, View: map[int]uint64{3: 0}}, false},
		"negative id departed":   {Hello{ID: 1, Epoch: 2, Departed: map[int]uint64{-4: 1}}, false},
		"zero epoch departed":    {Hello{ID: 1, Epoch: 2, Departed: map[int]uint64{3: 0}}, false},
		"live and departed":      {Hello{ID: 1, Epoch: 2, View: map[int]uint64{3: 5}, Departed: map[int]uint64{3: 5}}, false},
		"view over the cap":      {Hello{ID: 1, Epoch: 2, View: big}, false},
		"departed over the cap":  {Hello{ID: 1, Epoch: 2, Departed: big}, false},
		"departed at an old one": {Hello{ID: 1, Epoch: 2, View: map[int]uint64{3: 6}, Departed: map[int]uint64{3: 5}}, true},
	} {
		if err := checkHello(c.h); (err == nil) != c.ok {
			t.Errorf("%s: checkHello says %v, want ok=%v", name, err, c.ok)
		}
		lb := NewLoadBalancer(DefaultBalancerConfig(), 64)
		lb.resume()
		if ack, _ := lb.Admit(c.h, time.Unix(1, 0)); !c.ok && ack.ID != helloRefused {
			t.Errorf("%s: Admit answered %+v, want a refusal", name, ack)
		}
	}
}

// TestResumeWaitsForNamedMembers: the window stays open until every
// member some view names is back, and then reports the one that never
// came and the departure nobody acknowledged; the restart's first wave is
// numbered past the stale probe a returning worker still echoes.
func TestResumeWaitsForNamedMembers(t *testing.T) {
	now := time.Unix(100, 0)
	lb := NewLoadBalancer(DefaultBalancerConfig(), 64)
	lb.resume()
	view := map[int]uint64{0: 1, 1: 2, 2: 3}
	back := func(id int, epoch uint64) {
		t.Helper()
		h := Hello{ID: id, Epoch: epoch, View: view, Departed: map[int]uint64{3: 4}}
		if ack, _ := lb.Admit(h, now); ack.ID != id {
			t.Fatalf("re-hello of %d answered %+v", id, ack)
		}
		lb.Update(Status{Worker: id, Epoch: epoch, Done: true, Probe: 7, Frontier: &JobTree{}}, now)
	}
	back(0, 1)
	if lb.ExpireLeases(now); !lb.ResyncPending {
		t.Fatal("the window closed while members 1 and 2 were still away")
	}
	back(1, 2)
	if lb.ExpireLeases(now); !lb.ResyncPending {
		t.Fatal("the window closed while member 2 was still away")
	}
	now = now.Add(2 * lb.cfg.Lease)
	lb.Touch(0, now)
	lb.Touch(1, now)
	outs := lb.ExpireLeases(now)
	if lb.ResyncPending || lb.Abandoned != 2 {
		t.Fatalf("window open=%v abandoned=%d, want closed with 2 abandoned", lb.ResyncPending, lb.Abandoned)
	}
	var lost []int
	for _, out := range outs {
		if out.Msg.Kind == MsgAbandon {
			lost = append(lost, out.Msg.From)
		}
	}
	if len(lost) != 2 || lost[0] != 2 || lost[1] != 3 || lb.NextID != 4 || lb.NextEpoch != 4 {
		t.Fatalf("abandon notices for %v, next id %d epoch %d; want 2 and 3, then 4/4", lost, lb.NextID, lb.NextEpoch)
	}
	for _, id := range []int{0, 1} {
		lb.Update(Status{Worker: id, Epoch: uint64(id + 1), Done: true, Probe: 7}, now)
	}
	if got := probesIn(lb.Round(now)); len(got) != 1 || got[0] != 8 {
		t.Fatalf("the restart's first wave is %v, want [8], past the stale echo 7", got)
	}
}

// TestMemberNotes: a worker's transport remembers the last view and every
// departure the balancer announced, and puts them in a re-dial's Hello
// only.
func TestMemberNotes(t *testing.T) {
	n := newMemberNotes()
	n.note(Message{Kind: MsgMembers, Members: map[int]uint64{0: 1, 1: 2, 2: 3}})
	n.note(Message{Kind: MsgEvict, From: 2, Epoch: 3, Members: map[int]uint64{0: 1, 1: 2}})
	n.note(Message{Kind: MsgAbandon, From: 1, Epoch: 2})
	n.note(Message{Kind: MsgJobs, From: 0, Epoch: 1, Members: map[int]uint64{7: 7}})
	h := n.hello("a:1", 0, 1)
	if !reflect.DeepEqual(h.View, map[int]uint64{0: 1}) || !reflect.DeepEqual(h.Departed, map[int]uint64{1: 2, 2: 3}) {
		t.Fatalf("re-dial hello carries view %v departed %v, want {0:1} and {1:2 2:3}", h.View, h.Departed)
	}
	if err := checkHello(h); err != nil {
		t.Fatal(err)
	}
	if fresh := n.hello("a:1", -1, 0); fresh.View != nil || fresh.Departed != nil {
		t.Fatalf("a fresh join carries %+v", fresh)
	}
}

// TestResumeWaitsForALiveSilentMember: a worker that re-dialed but sends
// no status — one long solver search, its lease kept by keepalives —
// holds the window open past 2×Lease, because only its first full status
// carries its unit claims and its custody acks. One that goes silent for
// a lease instead is reported when the window closes, and evicted.
func TestResumeWaitsForALiveSilentMember(t *testing.T) {
	for _, alive := range []bool{true, false} {
		now := time.Unix(100, 0)
		lb := NewLoadBalancer(BalancerConfig{DataPlane: DataPlaneDepth}, 64)
		lb.resume()
		view := map[int]uint64{0: 1, 1: 2}
		for id := range 2 {
			if ack, _ := lb.Admit(Hello{ID: id, Epoch: uint64(id + 1), View: view}, now); ack.ID != id {
				t.Fatalf("re-hello of %d answered %+v", id, ack)
			}
		}
		lb.Update(Status{Worker: 0, Epoch: 1, Done: true, Frontier: &JobTree{}}, now)
		later := now.Add(3 * lb.cfg.Lease)
		lb.Touch(0, later)
		if alive {
			lb.Touch(1, later) // a keepalive
		}
		lb.ExpireLeases(later)
		if lb.ResyncPending != alive {
			t.Fatalf("alive=%v: window open=%v past its deadline", alive, lb.ResyncPending)
		}
		if alive {
			lb.Update(Status{Worker: 1, Epoch: 2, Done: true, Units: []int{3}, Frontier: &JobTree{}}, later)
			lb.ExpireLeases(later)
			if lb.ResyncPending || lb.Abandoned != 0 || lb.UnitOwner[3] != 1 {
				t.Fatalf("after the silent member's status: window open=%v abandoned=%d unit 3 owned by %d",
					lb.ResyncPending, lb.Abandoned, lb.UnitOwner[3])
			}
		} else if lb.Abandoned != 1 || lb.Members[1] != nil {
			t.Fatalf("a member silent for a lease: abandoned=%d, still seated=%v", lb.Abandoned, lb.Members[1] != nil)
		}
	}
}
