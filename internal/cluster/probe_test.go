package cluster

// Tests of what the balancer does when a report arrives: the probe waves
// that decide termination and the unit grants an idle report is answered
// with, at the LoadBalancer level (no sockets, hand-picked times), plus
// the worker's side of both — statuses on a clock, a probe answered at
// once.

import (
	"reflect"
	"testing"
	"time"

	"cloud9/internal/obs"
)

// control feeds one status through LoadBalancer.Control, as a fabric
// does, and returns the probe sequences the balancer asked to broadcast.
func control(t *testing.T, lb *LoadBalancer, m *Member, st Status) []uint64 {
	t.Helper()
	st.Worker, st.Epoch = m.ID, m.Epoch
	return probesIn(lb.Control(Message{Kind: MsgStatus, From: m.ID, Epoch: m.Epoch, Status: &st}, time.Unix(1, 0)))
}

func probesIn(outs []Outbound) []uint64 {
	var seqs []uint64
	for _, out := range outs {
		if out.Msg.Kind == MsgProbe {
			if out.To != Broadcast {
				panic("probe not broadcast")
			}
			seqs = append(seqs, out.Msg.Seq)
		}
	}
	return seqs
}

// one returns the single probe in seqs, failing the test otherwise.
func one(t *testing.T, what string, seqs []uint64) uint64 {
	t.Helper()
	if len(seqs) != 1 {
		t.Fatalf("%s: %d probes broadcast, want 1", what, len(seqs))
	}
	return seqs[0]
}

// TestProbeWavesRejectStaleBalance is the schedule Quiescent alone gets
// wrong: A's idle report is old, B ships A two jobs, A ships B two back
// and keeps working, B drains and reports — the sums balance, every last
// report is idle, and A holds work. The wave asks A again, and A's answer
// shows it. Once A has really drained, two clean waves end the run, and
// the journal says which wave and on what sums.
func TestProbeWavesRejectStaleBalance(t *testing.T) {
	lb := NewLoadBalancer(DefaultBalancerConfig(), 64)
	ms := joinN(t, lb, 2)
	a, b := ms[0], ms[1]
	if got := control(t, lb, b, Status{Queue: 5}); got != nil {
		t.Fatalf("probe %v while B reports work", got)
	}
	if got := control(t, lb, a, Status{Queue: 0}); got != nil {
		t.Fatalf("probe %v while B reports work", got)
	}
	// B: sent 2, received 2, drained. A has not reported since.
	w1 := one(t, "B's balanced report", control(t, lb, b, Status{Queue: 0, JobsSent: 2, JobsRecv: 2}))
	if !lb.Quiescent() {
		t.Fatal("the stale schedule should satisfy Quiescent: that is the point")
	}
	if got := control(t, lb, b, Status{Queue: 0, JobsSent: 2, JobsRecv: 2, Probe: w1}); got != nil || lb.Terminated() {
		t.Fatalf("wave %d closed without A's echo (probes %v, terminated %v)", w1, got, lb.Terminated())
	}
	if got := control(t, lb, a, Status{Queue: 3, JobsSent: 2, JobsRecv: 2, Probe: w1}); got != nil || lb.Terminated() {
		t.Fatalf("A answered with work: probes %v, terminated %v", got, lb.Terminated())
	}
	if lb.probeOpen || lb.cleanWaves != 0 {
		t.Fatalf("a report showing work must reset the detector: open=%v clean=%d", lb.probeOpen, lb.cleanWaves)
	}

	// A drains. Two waves, each answered by both, end the run; the second
	// is opened by the report that closes the first.
	idle := Status{Queue: 0, JobsSent: 2, JobsRecv: 2}
	idle.Probe = w1
	w2 := one(t, "A's idle report", control(t, lb, a, idle))
	if w2 <= w1 {
		t.Fatalf("wave numbers must grow: %d after %d", w2, w1)
	}
	idle.Probe = w2
	control(t, lb, a, idle)
	w3 := one(t, "the echo that completes wave 2", control(t, lb, b, idle))
	if lb.Terminated() {
		t.Fatal("terminated after one clean wave")
	}
	idle.Probe = w3
	control(t, lb, b, idle)
	if got := control(t, lb, a, idle); got != nil || !lb.Terminated() {
		t.Fatalf("two clean waves: probes %v, terminated %v", got, lb.Terminated())
	}
	var ended []obs.Event
	for _, ev := range lb.Journal().All() {
		if ev.Type == evTerminated {
			ended = append(ended, ev)
		}
	}
	if len(ended) != 1 || ended[0].Fields["sent"] != "4" || ended[0].Fields["recv"] != "4" ||
		ended[0].Fields["waves"] != "3" || ended[0].Fields["wave"] != "3" || ended[0].Fields["term"] != "1" {
		t.Fatalf("terminated events: %+v", ended)
	}
	var fleet obs.Snapshot
	lb.PutLBMetrics(&fleet)
	if got := fleet.Counter(mLBProbeWaves); got != 3 {
		t.Fatalf("%s = %d, want 3", mLBProbeWaves, got)
	}
	if got := probesIn(lb.Round(time.Unix(2, 0))); got != nil {
		t.Fatalf("probe %v after termination", got)
	}
}

// TestProbeWaveSumsMustAgree: two complete waves, every member idle in
// both, but a job was sent and taken back in between (a re-import: the
// sums moved, in balance): the second wave is the first of a new count,
// not the second of the old.
func TestProbeWaveSumsMustAgree(t *testing.T) {
	lb := NewLoadBalancer(DefaultBalancerConfig(), 64)
	ms := joinN(t, lb, 2)
	control(t, lb, ms[0], Status{})
	w1 := one(t, "both idle", control(t, lb, ms[1], Status{}))
	control(t, lb, ms[0], Status{Probe: w1})
	w2 := one(t, "wave 1 complete", control(t, lb, ms[1], Status{Probe: w1}))
	control(t, lb, ms[0], Status{JobsSent: 1, JobsRecv: 1, Probe: w2})
	w3 := one(t, "wave 2 complete on other sums", control(t, lb, ms[1], Status{Probe: w2}))
	if lb.Terminated() || lb.cleanWaves != 1 {
		t.Fatalf("sums moved between the waves: terminated=%v clean=%d", lb.Terminated(), lb.cleanWaves)
	}
	control(t, lb, ms[0], Status{JobsSent: 1, JobsRecv: 1, Probe: w3})
	control(t, lb, ms[1], Status{Probe: w3})
	if !lb.Terminated() {
		t.Fatal("waves 2 and 3 agree and must terminate")
	}
}

// TestProbeWaveResetByJoin: a member joining between two waves starts
// the count again, and the next waves wait for its echo too.
func TestProbeWaveResetByJoin(t *testing.T) {
	lb := NewLoadBalancer(DefaultBalancerConfig(), 64)
	ms := joinN(t, lb, 1)
	w1 := one(t, "lone idle member", control(t, lb, ms[0], Status{}))
	w2 := one(t, "wave 1 complete", control(t, lb, ms[0], Status{Probe: w1}))
	late, _ := lb.Join("", time.Unix(1, 0))
	if lb.probeOpen || lb.cleanWaves != 0 {
		t.Fatalf("join must reset the detector: open=%v clean=%d", lb.probeOpen, lb.cleanWaves)
	}
	if got := control(t, lb, ms[0], Status{Probe: w2}); got != nil || lb.Terminated() {
		t.Fatalf("echo of an abandoned wave, unreported member present: probes %v terminated %v", got, lb.Terminated())
	}
	w3 := one(t, "the late member's first report", control(t, lb, late, Status{}))
	control(t, lb, ms[0], Status{Probe: w3})
	if lb.Terminated() {
		t.Fatal("terminated without the late member's echo")
	}
	w4 := one(t, "wave 3 complete", control(t, lb, late, Status{Probe: w3}))
	control(t, lb, ms[0], Status{Probe: w4})
	control(t, lb, late, Status{Probe: w4})
	if !lb.Terminated() {
		t.Fatal("two clean waves over both members must terminate")
	}
}

// TestProbeReissuedEachRound: a probe nobody answers (lost with a
// connection, say) goes out again on every balance round under the same
// number, and a held-open balancer (LBServer.MinWorkers not yet met) does
// not probe at all.
func TestProbeReissuedEachRound(t *testing.T) {
	lb := NewLoadBalancer(DefaultBalancerConfig(), 64)
	lb.neverEvict = true
	ms := joinN(t, lb, 2)
	lb.holdOpen = true
	control(t, lb, ms[0], Status{})
	if got := control(t, lb, ms[1], Status{}); got != nil {
		t.Fatalf("held open, probed %v", got)
	}
	if got := probesIn(lb.Round(time.Unix(2, 0))); got != nil {
		t.Fatalf("held open, probed %v on a round", got)
	}
	lb.holdOpen = false
	w := one(t, "first round after the hold", probesIn(lb.Round(time.Unix(3, 0))))
	for r := 0; r < 3; r++ {
		if again := one(t, "unanswered wave", probesIn(lb.Round(time.Unix(int64(4+r), 0)))); again != w {
			t.Fatalf("round %d re-issued wave %d, want the open wave %d", r, again, w)
		}
	}
	// One echo is not the wave; a round still re-sends.
	control(t, lb, ms[0], Status{Probe: w})
	if again := one(t, "half-answered wave", probesIn(lb.Round(time.Unix(8, 0)))); again != w {
		t.Fatalf("re-issued wave %d, want %d", again, w)
	}
	if lb.probeWaves != 1 {
		t.Fatalf("re-sending must not count as a new wave: %d", lb.probeWaves)
	}
}

// TestUnitGrantsShrinkOnIdleReports: 16 units and 2 members go out as 4,
// 3, 3, 2, 1, 1, 1, 1, each to the member whose idle report arrived, none
// to a member that went idle again before its last grant reached it —
// and a replica replaying the primary's log ends with the same unit
// table.
func TestUnitGrantsShrinkOnIdleReports(t *testing.T) {
	cfg := DefaultBalancerConfig()
	cfg.DataPlane = DataPlaneDepth
	const covLen = 63
	lb := NewLoadBalancer(cfg, covLen)
	all := recordReplication(lb)
	ms := joinN(t, lb, 2)
	owned := map[int][]int{}
	// idle reports member m idle, claiming what it has been granted so
	// far, and returns the size of the grant that answers it (0 = none).
	idle := func(m *Member) int {
		t.Helper()
		st := Status{Worker: m.ID, Epoch: m.Epoch, Done: true, Units: owned[m.ID]}
		outs, ok := lb.Update(st, time.Unix(1, 0))
		if !ok {
			t.Fatalf("status for member %d rejected", m.ID)
		}
		for _, out := range outs {
			if out.Msg.Kind == MsgUnits {
				if out.To != m.ID {
					t.Fatalf("member %d's report granted units to %d", m.ID, out.To)
				}
				n := len(out.Msg.Units) - len(owned[m.ID])
				owned[m.ID] = out.Msg.Units
				return n
			}
		}
		return 0
	}
	var sizes []int
	for _, m := range []*Member{ms[1], ms[0], ms[0], ms[1], ms[1], ms[1], ms[0], ms[1]} {
		stale := Status{Worker: m.ID, Epoch: m.Epoch, Done: true, Units: owned[m.ID]}
		sizes = append(sizes, idle(m))
		// The same member, idle again before the grant reached it: its
		// report does not claim the units it now owns, and gets none.
		if outs, _ := lb.Update(stale, time.Unix(1, 0)); len(outs) != 0 {
			t.Fatalf("a report older than the last grant was answered: %+v", outs)
		}
	}
	if want := []int{4, 3, 3, 2, 1, 1, 1, 1}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("grant sizes %v, want %v", sizes, want)
	}
	if n := idle(ms[0]); n != 0 || len(lb.ownedUnits(-1)) != 0 {
		t.Fatalf("pool should be dry: granted %d, unclaimed %v", n, lb.ownedUnits(-1))
	}
	if want := []int{1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 1}; !reflect.DeepEqual(lb.UnitOwner, want) {
		t.Fatalf("unit table %v, want %v", lb.UnitOwner, want)
	}
	for _, ev := range lb.Journal().All() {
		if ev.Type == obs.EvUnitGrant && ev.Fields["cause"] != grantOnReport {
			t.Fatalf("grant journaled with cause %q: %+v", ev.Fields["cause"], ev)
		}
	}
	rep := replay(t, lb, covLen, *all)
	if !reflect.DeepEqual(rep.LB().UnitOwner, lb.UnitOwner) {
		t.Fatalf("replica's unit table %v, primary's %v", rep.LB().UnitOwner, lb.UnitOwner)
	}
	if got, want := rep.LB().StateFingerprint(), lb.StateFingerprint(); got != want {
		t.Fatalf("replayed standby diverges from primary:\n--- primary ---\n%s\n--- standby ---\n%s", want, got)
	}

	// Units reclaimed from a departed member have no report to ride on:
	// the next round grants them, and says so.
	lb.Goodbye(ms[1].ID, time.Unix(2, 0))
	granted := false
	for _, out := range lb.Tick(time.Unix(2, 0)) {
		granted = granted || (out.Msg.Kind == MsgUnits && out.To == ms[0].ID)
	}
	evs := lb.Journal().All()
	if last := evs[len(evs)-1]; !granted || last.Type != obs.EvUnitGrant || last.Fields["cause"] != grantOnTick {
		t.Fatalf("reclaimed units not re-granted on the tick: granted=%v, last event %+v", granted, last)
	}
}

// scriptedTransport is a worker transport driven by the number of
// mailbox drains the worker has completed: mail[k] is delivered in drain
// k, onDrain runs as drain k ends, and every status the worker sends is
// kept with the drain it was sent in.
type scriptedTransport struct {
	drains   int
	mail     map[int][]Message
	queue    []Message
	onDrain  func(k int)
	statuses []Status
	sentIn   []int
}

func (s *scriptedTransport) Recv() (Message, bool) {
	if msgs, ok := s.mail[s.drains]; ok {
		s.queue = append(s.queue, msgs...)
		delete(s.mail, s.drains)
	}
	if len(s.queue) == 0 {
		if s.onDrain != nil {
			s.onDrain(s.drains)
		}
		s.drains++
		return Message{}, false
	}
	m := s.queue[0]
	s.queue = s.queue[1:]
	return m, true
}

func (s *scriptedTransport) SendToLB(m Message) bool {
	if m.Kind == MsgStatus {
		s.statuses = append(s.statuses, *m.Status)
		s.sentIn = append(s.sentIn, s.drains)
	}
	return true
}
func (s *scriptedTransport) SendToLBAt(m Message, gen uint64) bool { return s.SendToLB(m) }
func (s *scriptedTransport) LBGen() uint64                         { return 1 }
func (s *scriptedTransport) SendJobs(int, Message) bool            { return false }
func (s *scriptedTransport) WaitForMail()                          {}

// TestRunLoopStatusesOnAClock: thirty batches on a clock that moves once
// send the opening status, one status for the batch after which 5 ms had
// passed, and the closing one — and a probe in the middle is answered in
// the drain that read it, whatever the clock says.
func TestRunLoopStatusesOnAClock(t *testing.T) {
	tr := &scriptedTransport{mail: map[int][]Message{
		10: {{Kind: MsgProbe, Seq: 7}},
		30: {{Kind: MsgStop}},
	}}
	w, err := NewWorker(WorkerConfig{
		ID: 0, Epoch: 1, Seed: true, Batch: 4,
		NewInterp: mkInterp(t, hugeClusterTarget), Entry: "main",
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	clock := time.Unix(100, 0)
	w.now = func() time.Time { return clock }
	tr.onDrain = func(k int) {
		if k == 20 {
			clock = clock.Add(statusEvery)
		}
	}
	if err := w.RunLoop(); err != nil {
		t.Fatal(err)
	}
	if w.Exp.Done() {
		t.Fatal("the target ran dry: idle statuses would drown the count")
	}
	// Drain 0 follows the opening status; the batch after drain 20 ends
	// with drains == 21; the closing status follows drain 30's MsgStop.
	if want := []int{0, 10, 21, 30}; !reflect.DeepEqual(tr.sentIn, want) {
		t.Fatalf("statuses sent in drains %v, want %v", tr.sentIn, want)
	}
	for i, st := range tr.statuses {
		if want := uint64(7); (i >= 1) != (st.Probe == want) {
			t.Fatalf("status %d echoes probe %d", i, st.Probe)
		}
	}
}
