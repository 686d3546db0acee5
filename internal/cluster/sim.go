package cluster

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"cloud9/internal/engine"
	"cloud9/internal/interp"
	"cloud9/internal/obs"
)

// SimEvent schedules a membership event at a virtual-time tick.
type SimEvent struct {
	Tick   int
	Worker int // target worker id (ignored for joins)
}

// SimCrashLB schedules a load-balancer kill -9 at a virtual tick. The
// balancer and everything it held die with it; RestartTicks later
// (default 2) a fresh one is started as a restart (c9-lb -resume) and
// every live worker re-dials it with its view and departed set. Until
// then every worker→LB send fails and workers mark their next status
// full, the same resync the TCP stream-generation bump forces.
type SimCrashLB struct {
	Tick         int
	RestartTicks int
}

// SimConfig drives a deterministic lock-step cluster simulation.
//
// The paper evaluates on a 48-node commodity cluster; this reproduction
// substitutes a discrete-time simulation: in each tick every worker
// executes up to Quantum instructions, and the load balancer runs every
// BalanceTicks ticks. Virtual time (ticks) plays the role of wall-clock
// time, making the scalability experiments (Figs. 7–10, 12, 13)
// machine-independent and reproducible on a single core. Membership is
// simulated too: Crashes silences a worker abruptly (its lease then
// expires after LeaseTicks), Retires makes one leave gracefully, and
// Joins adds workers mid-run — all at deterministic ticks, so crash
// recovery itself is reproducible bit-for-bit.
type SimConfig struct {
	Workers   int
	Entry     string
	NewInterp func() (*interp.Interp, error)
	Engine    engine.Config
	Balancer  BalancerConfig

	// Quantum is the per-worker instruction budget per tick.
	Quantum uint64
	// BalanceTicks is the LB period in ticks.
	BalanceTicks int
	// MaxTicks bounds the run (0 = until exhaustion).
	MaxTicks int
	// StopWhen ends the run early when it returns true.
	StopWhen func(s Snapshot) bool
	// DisableLBAtTick turns balancing off from that tick on (0 = never).
	DisableLBAtTick int
	// SampleTicks is the metrics sampling period (default: BalanceTicks).
	SampleTicks int

	// Crashes kills workers abruptly at the given ticks (no goodbye; the
	// LB evicts them when their lease lapses and re-seats their jobs).
	Crashes []SimEvent
	// Retires makes workers leave gracefully at the given ticks.
	Retires []SimEvent
	// Joins adds one worker at each listed tick.
	Joins []int
	// CrashLB kills the load balancer mid-run and restarts it empty; the
	// run must still finish with the undisturbed path count unless the
	// restart reports abandoned work.
	CrashLB *SimCrashLB
	// LeaseTicks is the membership lease in virtual ticks (default: 3
	// balance periods).
	LeaseTicks int

	// PeerDownFrom blackholes worker→worker job shipping from that tick
	// on (0 = never): SendJobs fails as if the peer listener were
	// unreachable, so every batch falls back to LB relay. PeerDownTo ends
	// the outage (exclusive; 0 = forever). Custody is channel-agnostic,
	// so path counts must be unchanged either way.
	PeerDownFrom int
	PeerDownTo   int
}

// SimResult is the outcome of a simulated run.
type SimResult struct {
	Ticks     int
	Exhausted bool
	Final     Snapshot
	Samples   []Snapshot // sampled every SampleTicks
	Workers   []*Worker
	LB        *LoadBalancer
	Evictions int
	// Obs is the fleet-wide metrics fold (same accounting cut as Final);
	// Journal is the LB's run-event journal. Both are bit-for-bit
	// reproducible across identically-seeded runs: every timestamp
	// derives from the virtual tick clock.
	Obs     obs.Snapshot
	Journal []obs.Event
}

// simEndpoint is a synchronous transport: messages land in slices the
// simulation dispatches between ticks.
type simEndpoint struct {
	sim *sim
	id  int
}

func (e simEndpoint) SendToLB(m Message) bool {
	if e.sim.down {
		return false
	}
	e.sim.dispatch(e.sim.lb.Control(m, e.sim.now))
	return true
}

// LBGen / SendToLBAt: a restart bumps the generation exactly as a
// TCP stream reconnect does, forcing every worker's next status to be a
// full one (frontier and metrics).
func (e simEndpoint) LBGen() uint64 { return e.sim.gen }

func (e simEndpoint) SendToLBAt(m Message, gen uint64) bool {
	if gen != e.sim.gen {
		return false
	}
	return e.SendToLB(m)
}

func (e simEndpoint) SendJobs(dst int, m Message) bool {
	if e.sim.peerFrom > 0 && e.sim.tick >= e.sim.peerFrom &&
		(e.sim.peerTo == 0 || e.sim.tick < e.sim.peerTo) {
		return false // peer links blackholed: force the relay fallback
	}
	e.sim.pending[dst] = append(e.sim.pending[dst], m)
	return true
}

// WaitForMail is a no-op: the sim steps workers itself and never enters
// RunLoop's idle wait.
func (e simEndpoint) WaitForMail() {}

func (e simEndpoint) Recv() (Message, bool) {
	q := e.sim.inbox[e.id]
	if len(q) == 0 {
		return Message{}, false
	}
	m := q[0]
	e.sim.inbox[e.id] = q[1:]
	if n := e.sim.notes[e.id]; n != nil {
		n.note(m)
	}
	return m, true
}

type sim struct {
	lb      *LoadBalancer
	now     time.Time // virtual clock: one second per tick
	tick    int
	inbox   map[int][]Message
	pending map[int][]Message // delivered at the next tick boundary

	// LB restart state (SimCrashLB).
	gen   uint64 // LB stream generation; a restart bumps it
	down  bool   // balancer dead, not yet restarted
	notes map[int]*memberNotes

	// Peer-link outage window (SimConfig.PeerDownFrom/To).
	peerFrom, peerTo int
}

// dispatch queues LB outbounds for delivery at the next tick boundary.
func (s *sim) dispatch(outs []Outbound) {
	for _, out := range outs {
		if out.To == Broadcast {
			for id := range s.pending {
				s.pending[id] = append(s.pending[id], out.Msg)
			}
			continue
		}
		if _, ok := s.pending[out.To]; ok {
			s.pending[out.To] = append(s.pending[out.To], out.Msg)
		}
	}
}

// simTick converts a virtual tick to the synthetic wall clock the LB's
// lease machinery runs on.
func simTick(tick int) time.Time {
	return time.Unix(0, 0).Add(time.Duration(tick) * time.Second)
}

// verdictHolds checks the balancer's termination verdict against what the
// sim can see and a TCP balancer cannot — the workers themselves. A live
// worker still holding candidates means the detector is wrong, and the
// run must fail instead of passing for exhaustive.
func verdictHolds(alive map[int]*Worker) error {
	for _, id := range slices.Sorted(maps.Keys(alive)) {
		if w := alive[id]; !w.Exp.Done() {
			return fmt.Errorf("balancer declared termination while worker %d holds %d candidates",
				id, w.Exp.Tree.NumCandidates())
		}
	}
	return nil
}

// RunSim executes the lock-step simulation. Admission, worker bring-up,
// termination and the final fold are the ones TCP uses (Admit, HelloAck.
// WorkerConfig, Terminated, fleetFold); what is written here is delivery
// — mail lands at tick boundaries — and the virtual clock.
func RunSim(cfg SimConfig) (*SimResult, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 2000
	}
	if cfg.BalanceTicks <= 0 {
		cfg.BalanceTicks = 1
	}
	if cfg.SampleTicks <= 0 {
		cfg.SampleTicks = cfg.BalanceTicks
	}
	if cfg.LeaseTicks <= 0 {
		cfg.LeaseTicks = 3 * cfg.BalanceTicks
	}
	// The lease is the one balancer field the sim sets: it is a duration,
	// and the sim's clock runs one second to the tick.
	cfg.Balancer.Lease = time.Duration(cfg.LeaseTicks) * time.Second
	if err := checkPortfolio(cfg.Balancer.Portfolio); err != nil {
		return nil, err
	}

	s := &sim{
		now:      simTick(0),
		gen:      1,
		notes:    map[int]*memberNotes{},
		inbox:    map[int][]Message{},
		pending:  map[int][]Message{},
		peerFrom: cfg.PeerDownFrom,
		peerTo:   cfg.PeerDownTo,
	}
	var workers []*Worker
	alive := map[int]*Worker{}

	spawn := func() error {
		ack, outs := s.lb.Admit(Hello{ID: -1}, s.now)
		s.notes[ack.ID] = newMemberNotes()
		s.inbox[ack.ID] = nil
		s.pending[ack.ID] = nil
		s.dispatch(outs)
		w, err := NewWorker(ack.WorkerConfig(WorkerConfig{
			Engine: cfg.Engine, NewInterp: cfg.NewInterp, Entry: cfg.Entry,
		}), simEndpoint{s, ack.ID})
		if err != nil {
			return fmt.Errorf("cluster: sim worker %d: %w", ack.ID, err)
		}
		// The worker's journal runs on the virtual tick clock, so journals
		// from identically-seeded runs are byte-identical.
		w.Exp.Journal.Now = func() time.Time { return s.now }
		workers = append(workers, w)
		alive[w.ID] = w
		w.sendStatus()
		return nil
	}

	// Coverage length requires an interpreter; probe one state first.
	probeIn, err := cfg.NewInterp()
	if err != nil {
		return nil, fmt.Errorf("cluster: sim: %w", err)
	}
	s.lb = NewLoadBalancer(cfg.Balancer, probeIn.Prog.MaxLine)
	restartAt := -1
	if cl := cfg.CrashLB; cl != nil {
		if cl.Tick <= 0 {
			return nil, fmt.Errorf("cluster: sim: CrashLB.Tick must be positive")
		}
		restartAt = cl.Tick + 2
		if cl.RestartTicks > 0 {
			restartAt = cl.Tick + cl.RestartTicks
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		if err := spawn(); err != nil {
			return nil, err
		}
	}

	res := &SimResult{LB: s.lb}
	snapshot := func() Snapshot {
		snap := Snapshot{}
		add := func(useful, replay, paths, errors, hangs uint64) {
			snap.UsefulSteps += useful
			snap.ReplaySteps += replay
			snap.Paths += paths
			snap.Errors += errors
			snap.Hangs += hangs
		}
		addObs := func(o obs.Snapshot) {
			add(o.Counter(obs.MEngineUsefulSteps), o.Counter(obs.MEngineReplaySteps),
				o.Counter(obs.MEnginePaths), o.Counter(obs.MEngineErrors), o.Counter(obs.MEngineHangs))
		}
		for _, w := range workers {
			if w.Departed() {
				// Gone, but maybe still a member (a crash whose lease has not
				// lapsed): count the metrics that become its accounting at
				// eviction — everything past them is re-explored by survivors.
				if m := s.lb.Members[w.ID]; m != nil {
					addObs(m.Obs)
				}
				continue
			}
			// A live worker's own counters: no registry snapshot per tick.
			st := &w.Exp.Stats
			add(st.UsefulSteps, st.ReplaySteps, st.PathsExplored, st.Errors, st.Hangs)
			snap.Queues = append(snap.Queues, w.Exp.Tree.NumCandidates())
		}
		addObs(s.lb.GoneObs)
		cov, _ := s.lb.GlobalCoverage()
		snap.Coverage = cov.Count()
		snap.StatesTransferred = s.lb.StatesTransferred()
		snap.TransfersIssued = s.lb.TransfersIssued
		return snap
	}

	tick := 0
	for {
		tick++
		s.tick = tick
		s.now = simTick(tick)
		// LB restart events: the kill loses everything the balancer held;
		// the restart is an empty balancer every live worker re-dials.
		if cl := cfg.CrashLB; cl != nil && tick == cl.Tick {
			s.down = true
		}
		if s.down && tick == restartAt {
			s.lb = NewLoadBalancer(cfg.Balancer, probeIn.Prog.MaxLine)
			s.lb.resume()
			s.down = false
			s.gen++ // every worker's next status is a full one
			res.LB = s.lb
			for _, id := range slices.Sorted(maps.Keys(alive)) {
				w := alive[id]
				ack, outs := s.lb.Admit(s.notes[id].hello("", w.ID, w.Epoch), s.now)
				if ack.ID < 0 {
					s.pending[id] = append(s.pending[id], Message{Kind: MsgStop})
				}
				s.dispatch(outs)
			}
		}
		// Membership events first, each kind in the order the schedule
		// lists it: a crash at tick T means the worker does nothing at T or
		// later; its inbox freezes.
		for _, ev := range cfg.Crashes {
			if w := alive[ev.Worker]; ev.Tick == tick && w != nil {
				w.vanish()
				delete(alive, ev.Worker)
			}
		}
		for _, ev := range cfg.Retires {
			if w := alive[ev.Worker]; ev.Tick == tick && w != nil {
				w.sendGoodbye()
				delete(alive, ev.Worker)
			}
		}
		for _, at := range cfg.Joins {
			if at != tick {
				continue
			}
			if s.down || s.lb.ResyncPending {
				return nil, fmt.Errorf("cluster: sim: join scheduled at tick %d while the LB is down or rebuilding", tick)
			}
			if err := spawn(); err != nil {
				return nil, err
			}
		}
		// Deliver messages produced last tick.
		for id, mail := range s.pending {
			s.inbox[id] = append(s.inbox[id], mail...)
			s.pending[id] = nil
		}
		// Each live worker, in id order: process mail, then run one quantum.
		aliveIDs := slices.Sorted(maps.Keys(alive))
		for _, id := range aliveIDs {
			w := alive[id]
			w.drainMailbox()
			if w.Stopped() {
				delete(alive, id)
				continue
			}
			if w.Exp.Done() {
				continue
			}
			start := w.Exp.In.Stats.Instructions
			for w.Exp.In.Stats.Instructions-start < cfg.Quantum && !w.Exp.Done() {
				if _, err := w.Exp.Step(); err != nil {
					return nil, fmt.Errorf("cluster: sim worker %d: %w", w.ID, err)
				}
			}
		}
		// Balancing round. While the LB is down the workers still try to
		// report — the failed sends mark their next status full, exactly
		// the resync the restarted balancer needs — but no LB machinery runs.
		if tick%cfg.BalanceTicks == 0 {
			if cfg.DisableLBAtTick > 0 && tick >= cfg.DisableLBAtTick {
				s.lb.Enabled = false
			}
			for _, id := range aliveIDs {
				if w := alive[id]; w != nil {
					w.sendStatus()
				}
			}
			if !s.down {
				// Balance orders and the coverage broadcast go straight
				// into inboxes — ahead of the replies this tick's statuses
				// queued — and everything else waits for the tick boundary.
				for _, out := range s.lb.Round(s.now) {
					switch out.Msg.Kind {
					case MsgTransferReq:
						s.inbox[out.To] = append(s.inbox[out.To], out.Msg)
					case MsgCoverage:
						for _, id := range aliveIDs {
							s.inbox[id] = append(s.inbox[id], out.Msg)
						}
					default:
						s.dispatch([]Outbound{out})
					}
				}
			}
		}
		if tick%cfg.SampleTicks == 0 {
			res.Samples = append(res.Samples, snapshot())
		}
		// Termination is the balancer's call, as on TCP: two clean probe
		// waves (LoadBalancer.Terminated). A dead balancer decides nothing,
		// and a restart still to come holds the run open.
		if !s.down && tick >= restartAt && s.lb.Terminated() {
			if err := verdictHolds(alive); err != nil {
				return nil, fmt.Errorf("cluster: sim: tick %d: %w", tick, err)
			}
			res.Exhausted = true
			break
		}
		if cfg.MaxTicks > 0 && tick >= cfg.MaxTicks {
			break
		}
		if cfg.StopWhen != nil && cfg.StopWhen(snapshot()) {
			break
		}
	}
	res.Ticks = tick
	res.Workers = workers
	res.Final = snapshot()
	res.Evictions = s.lb.Evictions
	res.Obs = fleetFold(s.lb, workers)
	res.Journal = s.lb.Journal().All()
	return res, nil
}
