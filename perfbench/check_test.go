package main

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/models"
	"github.com/serenity-ml/serenity/internal/sched"
)

// compiled returns a source graph and its memo-free compile. The DARTS cell
// is rewritten, so its schedule has aliased tensors.
func compiled(t *testing.T) (*graph.Graph, answer) {
	t.Helper()
	g := models.DARTSNormalCell()
	res, err := newPipeline().Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rewritten {
		t.Fatal("the DARTS cell should be rewritten")
	}
	return g, fromResult(res)
}

func TestChecksAcceptCompiledAnswers(t *testing.T) {
	v := newVerdict()
	rng := rand.New(rand.NewSource(1))
	src, a := compiled(t)
	checkProperties(v, a, rng)
	checkExecution(v, src, a)
	n := network{kind: kindFresh, res: 1, cells: [cellsPerNetwork]int64{1000, 1001, 5000, 1002}}
	g := n.build()
	res, err := newPipeline().Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	checkProperties(v, fromResult(res), rng)
	checkExecution(v, g, fromResult(res))
	if !v.ok() {
		var b strings.Builder
		v.report(&b)
		t.Fatalf("a compiled answer failed its checks:\n%s", b.String())
	}
}

func TestCheckOrderRejectsSwappedDependentNodes(t *testing.T) {
	_, a := compiled(t)
	order := slices.Clone(a.Order)
	// Swap the first node that has an input with that input.
	for i, u := range order {
		if preds := a.G.Nodes[u].Preds; len(preds) > 0 {
			j := slices.Index(order, preds[0])
			order[i], order[j] = order[j], order[i]
			break
		}
	}
	if err := checkOrder(a.G, order); err == nil {
		t.Fatal("an order running a node before its input was accepted")
	}
}

func TestCheckOrderRejectsMissingOrRepeatedNode(t *testing.T) {
	_, a := compiled(t)
	if err := checkOrder(a.G, a.Order[:len(a.Order)-1]); err == nil {
		t.Error("an order missing a node was accepted")
	}
	repeated := slices.Clone(a.Order)
	repeated[len(repeated)-1] = repeated[0]
	if err := checkOrder(a.G, repeated); err == nil {
		t.Error("an order running a node twice was accepted")
	}
}

func TestCheckArenaRejectsOverlappingLiveTensors(t *testing.T) {
	_, a := compiled(t)
	if err := checkArena(a.G, a.Order, a.Offsets, a.ArenaSize); err != nil {
		t.Fatalf("the planned arena was rejected: %v", err)
	}
	lts := newMemModel(a.G).lifetimes(a.Order)
	for i, x := range lts {
		for _, y := range lts[i+1:] {
			if x.start > y.end || y.start > x.end {
				continue
			}
			// Shift y onto x: both are live at once, so they now share bytes.
			offsets := slices.Clone(a.Offsets)
			offsets[y.root] = offsets[x.root]
			if err := checkArena(a.G, a.Order, offsets, a.ArenaSize+y.size); err == nil {
				t.Fatalf("tensors %d and %d share bytes while both live, and the arena was accepted", x.root, y.root)
			}
			return
		}
	}
	t.Fatal("no two tensors are live at once")
}

func TestCheckRandomOrdersRejectsPeakAboveASampledOrder(t *testing.T) {
	_, a := compiled(t)
	m := newMemModel(a.G)
	rng := rand.New(rand.NewSource(7))
	best := int64(-1)
	for i := 0; i < randomOrders; i++ {
		if p := m.peak(randomTopoOrder(a.G, rng)); best < 0 || p < best {
			best = p
		}
	}
	if err := checkRandomOrders(a.G, best+1, rand.New(rand.NewSource(7)), randomOrders); err == nil {
		t.Errorf("peak %d above the sampled order's %d was accepted", best+1, best)
	}
	if err := checkRandomOrders(a.G, a.Peak, rand.New(rand.NewSource(7)), randomOrders); err != nil {
		t.Errorf("the optimal peak was rejected: %v", err)
	}
}

func TestCheckPeakRejectsMisreportedPeak(t *testing.T) {
	_, a := compiled(t)
	if err := checkPeak(a.G, a.Order, a.Peak); err != nil {
		t.Fatalf("the reported peak was rejected: %v", err)
	}
	if err := checkPeak(a.G, a.Order, a.Peak-1); err == nil {
		t.Fatal("a peak below the replayed one was accepted")
	}
}

func TestSameAnswerRejectsServedAnswerDifferingFromMemoFree(t *testing.T) {
	_, ref := compiled(t)
	// A served answer carries no offsets.
	served := func() answer {
		a := ref
		a.Order, a.Offsets = slices.Clone(ref.Order), nil
		return a
	}
	if err := sameAnswer(served(), ref); err != nil {
		t.Fatalf("an identical served answer was rejected: %v", err)
	}
	order := served()
	n := len(order.Order)
	order.Order[n-2], order.Order[n-1] = order.Order[n-1], order.Order[n-2]
	peak, arena, baseline := served(), served(), served()
	peak.Peak++
	arena.ArenaSize++
	baseline.BaselinePeak++
	for name, a := range map[string]answer{"order": order, "peak": peak, "arena": arena, "baseline": baseline} {
		if err := sameAnswer(a, ref); err == nil {
			t.Errorf("a served answer with a different %s was accepted", name)
		}
	}
}

func TestVerdictNamesFailedChecks(t *testing.T) {
	v := newVerdict()
	_, a := compiled(t)
	a.Quality = string(serenity.QualityHeuristic)
	a.Peak++
	checkProperties(v, a, rand.New(rand.NewSource(1)))
	var b strings.Builder
	v.report(&b)
	for _, name := range []string{"quality.optimal", "peak.replayed"} {
		if v.failed[name] == 0 || !strings.Contains(b.String(), name) {
			t.Errorf("failed check %s not reported:\n%s", name, b.String())
		}
	}
}

func TestTrafficIsSeededInWholeRounds(t *testing.T) {
	stream := func(seed int64) []network {
		tr, err := newTraffic(seed, hotSet())
		if err != nil {
			t.Fatal(err)
		}
		tr.start(time.Hour)
		var out []network
		for len(out) < (chunkRounds+10)*roundSize {
			req, ok := tr.take()
			if !ok {
				t.Fatal("the stream ended early")
			}
			if req.err != nil || len(req.body) == 0 {
				t.Fatalf("request %d has no body (%v)", req.idx, req.err)
			}
			tr.finish()
			out = append(out, req.net)
		}
		return out
	}
	a := stream(3)
	if !slices.Equal(a, stream(3)) {
		t.Fatal("the same seed gave a different stream")
	}
	seen := map[string]bool{}
	for r := 0; r < len(a)/roundSize; r++ {
		var kinds [3]int
		for _, n := range a[r*roundSize : (r+1)*roundSize] {
			kinds[n.kind]++
			if n.kind != kindRepeat {
				if seen[n.key()] {
					t.Errorf("round %d sends %s a second time", r, n.key())
				}
				seen[n.key()] = true
			}
		}
		if kinds != [3]int{repeatsPerRound, knownPerRound, freshPerRound} {
			t.Errorf("round %d holds %v requests by kind", r, kinds)
		}
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, declared []struct{ Name, Unit string }, measured []metric) {
		if len(declared) != len(measured) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark measures %d", what, len(declared), len(measured))
			return
		}
		for i, m := range measured {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json says %s (%s), the benchmark %s (%s)", what, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}

func TestTrafficEndsAtAChunkBoundaryUnderConcurrentClients(t *testing.T) {
	tr, err := newTraffic(5, hotSet())
	if err != nil {
		t.Fatal(err)
	}
	tr.start(20 * time.Millisecond)
	taken := make([][]int, 4)
	var wg sync.WaitGroup
	for c := range taken {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				req, ok := tr.take()
				if !ok {
					return
				}
				time.Sleep(time.Duration(req.idx%3) * time.Millisecond)
				tr.finish()
				taken[c] = append(taken[c], req.idx)
			}
		}()
	}
	wg.Wait()
	var all []int
	for _, ts := range taken {
		all = append(all, ts...)
	}
	slices.Sort(all)
	if len(all) == 0 || len(all)%chunkSize != 0 {
		t.Fatalf("%d requests taken, not whole chunks of %d", len(all), chunkSize)
	}
	for i, idx := range all {
		if idx != i {
			t.Fatalf("the sorted indices taken hold %d at position %d: each index must be taken once", idx, i)
		}
	}
}

func TestTracerSelfTimesUnderConcurrentRequests(t *testing.T) {
	tr := newTracer()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root := tr.begin(int64(c*100+i), -1, "request")
				child := tr.begin(int64(c*100+i), root, "call")
				tr.end(child)
				tr.end(root)
			}
		}()
	}
	wg.Wait()
	lt := tr.layers()
	req, call := lt["request"], lt["call"]
	if req.Count != 200 || call.Count != 200 {
		t.Fatalf("counted %d requests and %d calls, want 200 each", req.Count, call.Count)
	}
	if req.Self != req.Total-call.Total || req.Self < 0 {
		t.Fatalf("request self time %v, want its total %v less its calls' %v", req.Self, req.Total, call.Total)
	}
}

func TestSameSearchRejectsADifferentOrder(t *testing.T) {
	g := models.DARTSNormalCell()
	m := serenity.NewMemModel(g)
	order, err := sched.KahnFIFO(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSearch(m, order, order, false); err != nil {
		t.Fatalf("the same order was rejected: %v", err)
	}
	other := randomTopoOrder(g, rand.New(rand.NewSource(1)))
	if slices.Equal(other, []int(order)) {
		t.Fatal("the sampled order equals Kahn's; pick another seed")
	}
	if sameSearch(m, order, other, false) == nil {
		t.Fatal("a different order from a search without timeouts was accepted")
	}
}

func TestFailedOperationFailsTheRun(t *testing.T) {
	r := &run{verdict: newVerdict(), values: map[string]float64{}}
	for _, m := range endToEnd {
		r.set(m.name, 1)
	}
	r.attempted = 3
	r.opFailed(errors.New("status 503"))
	out, err := r.result()
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct || r.verdict.failed["ops.all_succeeded"] != 1 {
		t.Fatalf("a run with a failed operation reads correct=%v, failed checks %v", out.Correct, r.verdict.failed)
	}
}
