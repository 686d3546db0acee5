package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c9_test_ops_total")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c9_test_ops_total") != c {
		t.Fatal("counter lookup did not return the same instance")
	}
	g := r.Gauge("c9_test_queue")
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	h := r.Histogram("c9_test_sizes", ExpBuckets(1, 2, 4)) // 1,2,4,8
	for _, v := range []uint64{0, 1, 2, 3, 9, 100} {
		h.Observe(v)
	}
	s := r.Snapshot()
	hist := s.Hists["c9_test_sizes"]
	want := []uint64{2, 1, 1, 0, 2} // ≤1:{0,1} ≤2:{2} ≤4:{3} ≤8:{} +Inf:{9,100}
	if !reflect.DeepEqual(hist.Counts, want) {
		t.Fatalf("hist counts = %v, want %v", hist.Counts, want)
	}
	if hist.Sum != 115 || hist.Count() != 6 {
		t.Fatalf("hist sum=%d count=%d, want 115/6", hist.Sum, hist.Count())
	}
}

// TestRegistryRaceStress hammers increments from many goroutines while a
// scraper snapshots concurrently; run under -race this is the data-race
// gate for the scrape-while-exploring pattern.
func TestRegistryRaceStress(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c9_test_hot_total")
	g := r.Gauge("c9_test_gauge")
	h := r.Histogram("c9_test_hist", []uint64{8, 64})
	var ext uint64
	r.AddSource(func(s *Snapshot) {
		s.PutCounter("c9_test_ext_total", ext) // const: set before goroutines start
	})
	ext = 42

	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.Snapshot()
			if s.Counter("c9_test_ext_total") != 42 {
				t.Error("source value lost")
				return
			}
		}
	}()
	var inc sync.WaitGroup
	for i := 0; i < workers; i++ {
		inc.Add(1)
		go func() {
			defer inc.Done()
			for j := 0; j < perWorker; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(uint64(j % 100))
			}
		}()
	}
	inc.Wait()
	close(stop)
	wg.Wait()

	s := r.Snapshot()
	if got := s.Counter("c9_test_hot_total"); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := s.Gauge("c9_test_gauge"); got != workers*perWorker {
		t.Fatalf("gauge = %d, want %d", got, workers*perWorker)
	}
	if got := s.Hists["c9_test_hist"].Count(); got != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", got, workers*perWorker)
	}
}

// splitmix64 gives the property tests a deterministic pseudo-random
// stream without math/rand.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func randomSnapshot(seed uint64) Snapshot {
	s := Snapshot{}
	names := []string{"a_total", "b_total", "c_total", "d_total"}
	for _, n := range names {
		if splitmix64(&seed)%3 != 0 {
			s.PutCounter("c9_test_"+n, splitmix64(&seed)%1000)
		}
	}
	for _, n := range []string{"g1", "g2"} {
		if splitmix64(&seed)%3 != 0 {
			s.PutGauge("c9_test_"+n, int64(splitmix64(&seed)%500))
		}
	}
	if splitmix64(&seed)%2 == 0 {
		h := Hist{Bounds: []uint64{4, 16}, Counts: make([]uint64, 3)}
		for i := range h.Counts {
			h.Counts[i] = splitmix64(&seed) % 50
			h.Sum += h.Counts[i] * uint64(i+1)
		}
		s.Hists = map[string]Hist{"c9_test_h": h}
	}
	return s
}

func snapshotsEqual(a, b Snapshot) bool {
	aj, _ := json.Marshal(normalize(a))
	bj, _ := json.Marshal(normalize(b))
	return bytes.Equal(aj, bj)
}

// normalize drops zero-valued counter entries so "absent" and "present
// as 0" compare equal.
func normalize(s Snapshot) Snapshot {
	out := clone(s)
	for k, v := range out.Counters {
		if v == 0 {
			delete(out.Counters, k)
		}
	}
	return out
}

// clone copies s by merging it into an empty snapshot.
func clone(s Snapshot) Snapshot {
	var out Snapshot
	out.Merge(s)
	return out
}

// TestMergeAssociativeCommutative is the property test for the fleet
// aggregation operator: fold order must not matter.
func TestMergeAssociativeCommutative(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		a, b, c := randomSnapshot(seed), randomSnapshot(seed*31), randomSnapshot(seed*101)

		ab := clone(a)
		ab.Merge(b)
		abc1 := clone(ab)
		abc1.Merge(c)

		bc := clone(b)
		bc.Merge(c)
		abc2 := clone(a)
		abc2.Merge(bc)

		if !snapshotsEqual(abc1, abc2) {
			t.Fatalf("seed %d: (a∪b)∪c != a∪(b∪c)\n%+v\n%+v", seed, abc1, abc2)
		}

		ba := clone(b)
		ba.Merge(a)
		if !snapshotsEqual(ab, ba) {
			t.Fatalf("seed %d: a∪b != b∪a", seed)
		}
	}
}

func TestJournalRingAndDeterminism(t *testing.T) {
	mk := func() *Journal {
		tick := int64(0)
		j := NewJournal(4)
		j.Now = func() time.Time { tick++; return time.Unix(tick, 0) }
		j.Worker = 3
		for i := 0; i < 6; i++ {
			j.Append("ev", map[string]string{"i": fmt.Sprint(i)})
		}
		return j
	}
	j := mk()
	if j.Len() != 4 {
		t.Fatalf("len = %d, want 4 (capacity)", j.Len())
	}
	tail := j.Tail(2)
	if len(tail) != 2 || tail[0].Fields["i"] != "4" || tail[1].Fields["i"] != "5" {
		t.Fatalf("tail = %+v", tail)
	}
	if tail[1].Seq != 6 || tail[1].Worker != 3 || tail[1].T != 6*int64(time.Second) {
		t.Fatalf("event stamping wrong: %+v", tail[1])
	}

	var b1, b2 bytes.Buffer
	WriteJSONL(&b1, mk().All())
	WriteJSONL(&b2, mk().All())
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("identically-clocked journals are not byte-identical")
	}
}

func TestWritePrometheus(t *testing.T) {
	s := Snapshot{}
	s.PutCounter("c9_test_ops_total", 9)
	s.PutCounter(`c9_lb_slot_yield_total{slot="0"}`, 3)
	s.PutCounter(`c9_lb_slot_yield_total{slot="1"}`, 4)
	s.PutGauge("c9_test_queue", -2)
	s.Hists = map[string]Hist{
		"c9_test_sizes": {Bounds: []uint64{2, 8}, Counts: []uint64{1, 2, 3}, Sum: 77},
	}
	var b bytes.Buffer
	WritePrometheus(&b, s)
	out := b.String()
	for _, want := range []string{
		"# TYPE c9_test_ops_total counter\nc9_test_ops_total 9\n",
		"c9_lb_slot_yield_total{slot=\"0\"} 3\n",
		"# TYPE c9_test_queue gauge\nc9_test_queue -2\n",
		"c9_test_sizes_bucket{le=\"2\"} 1\n",
		"c9_test_sizes_bucket{le=\"8\"} 3\n",
		"c9_test_sizes_bucket{le=\"+Inf\"} 6\n",
		"c9_test_sizes_sum 77\n",
		"c9_test_sizes_count 6\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family even with labeled series.
	if strings.Count(out, "# TYPE c9_lb_slot_yield_total counter") != 1 {
		t.Fatalf("labeled family should emit exactly one TYPE line:\n%s", out)
	}
}

func TestRenderSectionsAndRatios(t *testing.T) {
	s := Snapshot{}
	s.PutCounter("c9_engine_paths_total", 2136)
	s.PutCounter("c9_solver_queries_total", 100)
	s.PutCounter(MSolverStateExtends, 25)
	s.PutCounter(MSolverPruneMemoHits, 30)
	s.PutCounter(MSolverPruneMemoMisses, 10)
	s.PutGauge("c9_engine_coverage_lines", 88)
	out := Render(s)
	for _, want := range []string{
		"engine:", "paths=2136", "coverage_lines=88",
		"solver:", "queries=100",
		"state-extend=25/100 (25.0%)",
		"prune-memo-hit=30/40 (75.0%)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "engine:") > strings.Index(out, "solver:") {
		t.Fatalf("sections out of order:\n%s", out)
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("c9_test_ops_total").Add(5)
	j := NewJournal(8)
	j.Now = func() time.Time { return time.Unix(1, 0) }
	j.Append(EvBudgetKill, map[string]string{"path": "L"})
	srv := httptest.NewServer(Handler(r.Snapshot, j))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "c9_test_ops_total 5") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	code, body := get("/snapshot")
	if code != 200 {
		t.Fatalf("/snapshot: %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil || snap.Counter("c9_test_ops_total") != 5 {
		t.Fatalf("/snapshot decode: %v %q", err, body)
	}
	if code, body := get("/journal?n=1"); code != 200 || !strings.Contains(body, EvBudgetKill) {
		t.Fatalf("/journal: %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}
}

func TestWriteDump(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/dump.json"
	s := Snapshot{}
	s.PutCounter("c9_engine_paths_total", 552)
	if err := WriteDump(path, s, []Event{{Seq: 1, Type: EvWorkerEvict, Worker: 1}}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(blob, &d); err != nil {
		t.Fatal(err)
	}
	if d.Metrics.Counter("c9_engine_paths_total") != 552 || len(d.Journal) != 1 {
		t.Fatalf("dump round-trip: %+v", d)
	}
}
