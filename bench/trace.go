package main

import (
	"sort"
	"time"

	"cloud9/internal/cluster"
	"cloud9/internal/engine"
	"cloud9/internal/solver"
	"cloud9/internal/tree"
)

// Span names. A span is recorded around a call from this package into a
// layer's public function, so its name is the layer's, not the caller's.
const (
	spRun = iota // the timed interval of a single-node run
	spCompile
	spCfg
	spEngineNew
	spStep
	spSelect
	spAdd
	spRemove
	spNotify
	spRunLoop // one cluster worker's RunLoop
	spWaitMail
	spSendLB
	spSendJobs
	spRecv
	spServe
	spSolverReplay
	spShipExport
	spShipEncode
	spShipImport
	spShipReplay
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spRun: "run", spCompile: "cc.compile", spCfg: "cfg.build", spEngineNew: "engine.new",
	spStep: "engine.step", spSelect: "search.select", spAdd: "search.add",
	spRemove: "search.remove", spNotify: "search.notify",
	spRunLoop: "cluster.runloop", spWaitMail: "cluster.wait_mail", spSendLB: "cluster.send_lb",
	spSendJobs: "cluster.send_jobs", spRecv: "cluster.recv", spServe: "cluster.serve",
	spSolverReplay: "solver.replay", spShipExport: "ship.export", spShipEncode: "ship.encode",
	spShipImport: "ship.import", spShipReplay: "ship.replay",
}

// slowStep is the duration above which an engine step counts as slow.
const slowStep = 10 * time.Millisecond

type span struct {
	name       uint8
	parent     int32 // index into the same tracer's spans, -1 for a root
	start, end int64 // nanoseconds since the tracer's base
}

// tracer keeps one goroutine's spans in memory. Cluster workers get a
// tracer each, with a common base, and the spans are merged at the end;
// nothing is shared while the run is timed.
type tracer struct {
	base  time.Time
	spans []span
	// root parents the spans opened by the decorators; step is the open
	// engine.step span, or -1.
	root, step int32
}

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, spans: make([]span, 0, 1<<16), root: -1, step: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) openAt(name uint8, parent int32, now int64) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, start: now})
	return int32(len(t.spans) - 1)
}

func (t *tracer) open(name uint8, parent int32) int32 { return t.openAt(name, parent, t.now()) }

func (t *tracer) close(id int32) { t.spans[id].end = t.now() }

// timed records fn as a root span. Like beginRoot and endRoot it does
// nothing more than run fn on a nil tracer, which is what an untraced
// run has.
func (t *tracer) timed(name uint8, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.open(name, -1)
	fn()
	t.close(id)
}

// beginRoot opens the span that parents everything the decorators see
// until endRoot, which also ends the last step.
func (t *tracer) beginRoot(name uint8) {
	if t != nil {
		t.root = t.open(name, -1)
	}
}

func (t *tracer) endRoot() {
	if t != nil {
		t.boundaryAt(t.now())
		t.close(t.root)
		t.root = -1
	}
}

// boundaryAt ends the open engine.step span. Explorer.Step is called by
// code this package cannot wrap (cluster.Worker.RunLoop), so a step is
// taken to run from the strategy's Select, which Step calls first, to
// the next call its caller makes that this package can see: the next
// Select, a transport call, or the end of the run.
func (t *tracer) boundaryAt(now int64) {
	if t.step >= 0 {
		t.spans[t.step].end = now
		t.step = -1
	}
}

// tracedStrategy is the search layer's boundary: it times every call
// the engine makes into the strategy, opens the engine.step span, and
// harvests the constraint set of every node that enters the frontier.
type tracedStrategy struct {
	inner       engine.Strategy
	tr          *tracer
	tree        *tree.Tree
	frontierMax int
	harvest     []*solver.ConstraintSet
}

func (s *tracedStrategy) Name() string { return s.inner.Name() }

func (s *tracedStrategy) Select() *tree.Node {
	if c := s.tree.NumCandidates(); c > s.frontierMax {
		s.frontierMax = c
	}
	now := s.tr.now()
	s.tr.boundaryAt(now)
	step := s.tr.openAt(spStep, s.tr.root, now)
	sel := s.tr.openAt(spSelect, step, now)
	n := s.inner.Select()
	s.tr.close(sel)
	if n == nil {
		// An empty frontier is not a step.
		s.tr.spans = s.tr.spans[:step]
		return nil
	}
	s.tr.step = step
	return n
}

// parent is the span a strategy call belongs to: the open step, or the
// root when the caller is not Step (job import and export).
func (s *tracedStrategy) parent() int32 {
	if s.tr.step >= 0 {
		return s.tr.step
	}
	return s.tr.root
}

func (s *tracedStrategy) Add(n *tree.Node) {
	if n.State != nil {
		s.harvest = append(s.harvest, n.State.Constraints)
	}
	id := s.tr.open(spAdd, s.parent())
	s.inner.Add(n)
	s.tr.close(id)
}

func (s *tracedStrategy) Remove(n *tree.Node) {
	id := s.tr.open(spRemove, s.parent())
	s.inner.Remove(n)
	s.tr.close(id)
}

func (s *tracedStrategy) NotifyCoverage(n *tree.Node, newLines int) {
	id := s.tr.open(spNotify, s.parent())
	s.inner.NotifyCoverage(n, newLines)
	s.tr.close(id)
}

// NotifyGlobalCoverage keeps the engine's optional GlobalCoverageAware
// hook reaching a strategy that has it.
func (s *tracedStrategy) NotifyGlobalCoverage(newLines int) {
	if g, ok := s.inner.(engine.GlobalCoverageAware); ok {
		g.NotifyGlobalCoverage(newLines)
	}
}

// tracedTransport is the cluster layer's boundary on the worker side.
// Besides cluster.Transport it forwards the three optional methods the
// worker type-asserts for; without WaitForMail an idle worker would
// spin, and without LBGen/SendToLBAt it would take the transport for a
// lossless one.
type tracedTransport struct {
	inner *cluster.TCPWorkerTransport
	tr    *tracer
}

// call ends the open step and records fn as a child of the worker's
// root span.
func (t *tracedTransport) call(name uint8, fn func()) {
	now := t.tr.now()
	t.tr.boundaryAt(now)
	id := t.tr.openAt(name, t.tr.root, now)
	fn()
	t.tr.close(id)
}

func (t *tracedTransport) SendToLB(m cluster.Message) (ok bool) {
	t.call(spSendLB, func() { ok = t.inner.SendToLB(m) })
	return ok
}

func (t *tracedTransport) SendToLBAt(m cluster.Message, gen uint64) (ok bool) {
	t.call(spSendLB, func() { ok = t.inner.SendToLBAt(m, gen) })
	return ok
}

func (t *tracedTransport) SendJobs(dst int, m cluster.Message) (ok bool) {
	t.call(spSendJobs, func() { ok = t.inner.SendJobs(dst, m) })
	return ok
}

func (t *tracedTransport) Recv() (m cluster.Message, ok bool) {
	t.call(spRecv, func() { m, ok = t.inner.Recv() })
	if !ok {
		// A poll of an empty mailbox is not a message.
		t.tr.spans = t.tr.spans[:len(t.tr.spans)-1]
	}
	return m, ok
}

func (t *tracedTransport) WaitForMail() { t.call(spWaitMail, t.inner.WaitForMail) }

// LBGen is the first transport call of every status, so it ends the
// step; the status the worker then builds is the worker's time, not the
// step's.
func (t *tracedTransport) LBGen() uint64 {
	t.tr.boundaryAt(t.tr.now())
	return t.inner.LBGen()
}

// merge appends other tracers' spans, keeping parent links.
func merge(ts ...*tracer) []span {
	var out []span
	for _, t := range ts {
		off := int32(len(out))
		for _, s := range t.spans {
			if s.parent >= 0 {
				s.parent += off
			}
			out = append(out, s)
		}
	}
	return out
}

// spanStat summarises the spans of one name.
type spanStat struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	// SelfS is TotalS less the time covered by the spans' children.
	SelfS float64 `json:"self_s"`
	P50us float64 `json:"p50_us"`
	P99us float64 `json:"p99_us"`
	MaxS  float64 `json:"max_s"`
	// SlowS and SlowCount cover the spans longer than slowStep.
	SlowS     float64 `json:"slow_s"`
	SlowCount int     `json:"slow_count"`
}

// longSpan is one of the longest spans of a run, with the names of its
// ancestors from the root down.
type longSpan struct {
	Name   string   `json:"name"`
	StartS float64  `json:"start_s"`
	DurS   float64  `json:"dur_s"`
	Chain  []string `json:"chain"`
}

// traceSummary is what a traced run writes out in place of its raw
// spans.
type traceSummary struct {
	TraceID string     `json:"trace_id"`
	Spans   int        `json:"spans"`
	ByName  []spanStat `json:"by_name"`
	Longest []longSpan `json:"longest"`
}

const longestKept = 100

func summarize(traceID string, spans []span) *traceSummary {
	childNs := make([]int64, len(spans))
	durs := make([][]int64, numSpanNames)
	self := make([]int64, numSpanNames)
	for _, s := range spans {
		if s.parent >= 0 {
			childNs[s.parent] += s.end - s.start
		}
	}
	for i, s := range spans {
		d := s.end - s.start
		durs[s.name] = append(durs[s.name], d)
		self[s.name] += d - childNs[i]
	}
	sum := &traceSummary{TraceID: traceID, Spans: len(spans)}
	for name, ds := range durs {
		if len(ds) == 0 {
			continue
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		st := spanStat{
			Name: spanNames[name], Count: len(ds), SelfS: seconds(self[name]),
			P50us: float64(ds[len(ds)/2]) / 1e3, P99us: float64(ds[len(ds)*99/100]) / 1e3,
			MaxS: seconds(ds[len(ds)-1]),
		}
		var total int64
		for _, d := range ds {
			total += d
			if d > int64(slowStep) {
				st.SlowS += seconds(d)
				st.SlowCount++
			}
		}
		st.TotalS = seconds(total)
		sum.ByName = append(sum.ByName, st)
	}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		return sa.end-sa.start > sb.end-sb.start
	})
	if len(order) > longestKept {
		order = order[:longestKept]
	}
	for _, i := range order {
		s := spans[i]
		chain := []string{}
		for p := s.parent; p >= 0; p = spans[p].parent {
			chain = append([]string{spanNames[spans[p].name]}, chain...)
		}
		sum.Longest = append(sum.Longest, longSpan{
			Name: spanNames[s.name], StartS: seconds(s.start), DurS: seconds(s.end - s.start), Chain: chain,
		})
	}
	return sum
}

// stat returns the summary row of one span name (zero if it never ran).
func (s *traceSummary) stat(name uint8) spanStat {
	for _, st := range s.ByName {
		if st.Name == spanNames[name] {
			return st
		}
	}
	return spanStat{}
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }
