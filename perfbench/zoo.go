package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/dp"
	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/models"
	"github.com/serenity-ml/serenity/internal/partition"
	"github.com/serenity-ml/serenity/internal/sched"
)

// zooProcs is the benchmark process's GOMAXPROCS during the zoo workloads.
// Their pipeline is sequential, so the only parallel work is the garbage
// collector. With a second P, the collector's stop-the-world phases wait for
// the other vCPU, which a shared virtual machine deschedules for ~10 ms at a
// time: compile times then follow the host's CPU steal, not the program.
const zooProcs = 1

const (
	// coldSetupReps: building the zoo takes well under a millisecond, so its
	// median needs many repetitions to be steady.
	coldSetupReps = 21
	// warmSetupReps: filling a memo is a cold compile of the whole zoo; two
	// on each CPU.
	warmSetupReps = 4
	// memoCapacity is serenityd's default -segment-memo-size.
	memoCapacity = 4096
)

// zooModels returns the paper's nine evaluation cells and the full SwiftNet.
func zooModels() []*graph.Graph {
	var gs []*graph.Graph
	for _, c := range models.BenchmarkCells() {
		gs = append(gs, c.Build())
	}
	return append(gs, models.SwiftNet())
}

// zooLoop is the closed loop of one caller: it compiles the models in whole
// passes, each pass in a seeded order and on the next of the process's CPUs
// (see pinner), until d has passed. compile is timed; after sees each
// successful result outside the timing. With collect, the heap is
// collected and its free memory returned to the operating system before
// each compile, which then starts as it would in a process that compiles
// one model: otherwise the garbage of a large DP would be collected, and
// its pages reused or faulted in again, during whichever small compile the
// seeded order puts next.
type zooLoop struct {
	names   []string
	byCPU   []*zooSamples
	first   []*serenity.Result
	elapsed time.Duration
}

// zooSamples are the timings of the passes that ran on one CPU.
type zooSamples struct {
	latency   []float64   // ms per compile
	perModel  [][]float64 // ms per compile, by model
	passTotal []float64   // s per pass: its compile times summed
	passRate  []float64   // compiles per wall second of each pass, the benchmark's own work excluded
}

// all returns every compile's latency.
func (l *zooLoop) all() []float64 {
	var out []float64
	for _, s := range l.byCPU {
		out = append(out, s.latency...)
	}
	return out
}

func (r *run) runZooLoop(graphs []*graph.Graph, rng *rand.Rand, d time.Duration, pin *pinner, collect bool,
	compile func(i int) (*serenity.Result, error), after func(i int, res *serenity.Result)) *zooLoop {

	n := len(graphs)
	l := &zooLoop{first: make([]*serenity.Result, n)}
	for _, g := range graphs {
		l.names = append(l.names, g.Name)
	}
	for range pin.groups() {
		l.byCPU = append(l.byCPU, &zooSamples{perModel: make([][]float64, n)})
	}
	start := time.Now()
	for p := 0; time.Since(start) < d; p++ {
		s := l.byCPU[max(0, pin.pin(p))]
		// own is the time the benchmark spends on its own work between
		// compiles (forced collections, checks); a pass's rate leaves it out.
		var pass, own time.Duration
		compiled := 0
		passStart := time.Now()
		for _, i := range rng.Perm(n) {
			r.attempted++
			t0 := time.Now()
			if collect {
				debug.FreeOSMemory()
			}
			t1 := time.Now()
			res, err := compile(i)
			el := time.Since(t1)
			own += t1.Sub(t0)
			if err != nil {
				r.opFailed(err)
				continue
			}
			compiled++
			pass += el
			s.latency = append(s.latency, ms(el))
			s.perModel[i] = append(s.perModel[i], ms(el))
			if l.first[i] == nil {
				l.first[i] = res
			}
			t2 := time.Now()
			after(i, res)
			own += time.Since(t2)
		}
		s.passTotal = append(s.passTotal, pass.Seconds())
		s.passRate = append(s.passRate, float64(compiled)/(time.Since(passStart)-own).Seconds())
	}
	l.elapsed = time.Since(start)
	return l
}

// endToEnd records the loop's end-to-end metrics: each timing is the mean
// over the CPUs of its value on one CPU. fresh holds one memo-free result
// per model, the source of the search's own memory appetite. With byModel,
// the latency percentiles are taken over the per-model medians: a run of
// zoo-cold holds a few dozen compiles, too few for a tail, and a percentile
// over them would fall between two models' extreme samples.
func (l *zooLoop) endToEnd(r *run, fresh []*serenity.Result, byModel bool) {
	var reductions []float64
	var searchPeak int64
	for _, res := range fresh {
		if res != nil {
			reductions = append(reductions, float64(res.BaselinePeak)/float64(res.ArenaSize))
			searchPeak = max(searchPeak, res.SearchPeakBytes)
		}
	}
	r.set("arena_reduction_x", geomean(reductions))
	r.set("search_peak_bytes", float64(searchPeak))

	timings := map[string][]float64{}
	for c, s := range l.byCPU {
		if len(s.passTotal) == 0 {
			continue
		}
		var medians []float64
		for i, lat := range s.perModel {
			if len(lat) > 0 {
				medians = append(medians, median(lat))
				r.printf("cpu %d model %-16s median %10.3f ms over %d compiles\n", c, l.names[i], median(lat), len(lat))
			}
		}
		latency := s.latency
		if byModel {
			latency = medians
		}
		timings["compile_s"] = append(timings["compile_s"], median(s.passTotal))
		timings["compile_geomean_ms"] = append(timings["compile_geomean_ms"], geomean(medians))
		timings["throughput_ops_s"] = append(timings["throughput_ops_s"], median(s.passRate))
		timings["latency_p50_ms"] = append(timings["latency_p50_ms"], quantile(latency, 0.50))
		timings["latency_p99_ms"] = append(timings["latency_p99_ms"], quantile(latency, 0.99))
		r.printf("cpu %d: %d passes, %d compiles; latency p50 %.3f p90 %.3f p99 %.3f p99.9 %.3f ms over %d values\n",
			c, len(s.passTotal), len(s.latency), quantile(latency, 0.5), quantile(latency, 0.9), quantile(latency, 0.99), quantile(latency, 0.999), len(latency))
	}
	for name, vs := range timings {
		r.set(name, mean(vs))
	}
	r.printf("loop: %d compiles in %.2f s on %d CPUs in turn\n", len(l.all()), l.elapsed.Seconds(), len(l.byCPU))
}

// zooCounters records the deterministic per-pass counts of one result per
// model; they repeat exactly from run to run.
func zooCounters(r *run, results []*serenity.Result) {
	var sites, nodesOut, segments, maxSeg, hits, states int64
	var overPeak []float64
	for _, res := range results {
		if res == nil {
			continue
		}
		sites += int64(res.RewriteCount)
		nodesOut += int64(res.Graph.NumNodes())
		segments += int64(len(res.PartitionSizes))
		for _, s := range res.PartitionSizes {
			maxSeg = max(maxSeg, int64(s))
		}
		hits += int64(res.SegmentMemoHits)
		states += res.FreshStatesExplored
		overPeak = append(overPeak, float64(res.ArenaSize)/float64(res.Peak))
	}
	r.counter("rewrite.sites", float64(sites), "pass")
	r.counter("rewrite.nodes_out", float64(nodesOut), "pass")
	r.counter("partition.segments", float64(segments), "pass")
	r.counter("partition.max_segment_nodes", float64(maxSeg), "pass")
	r.counter("segmemo.hits", float64(hits), "pass")
	r.counter("dp.states", float64(states), "pass")
	r.counter("store.writes", 0, "pass")
	r.set("segmemo.hit_ratio", float64(hits)/float64(segments))
	r.set("alloc.arena_over_peak", geomean(overPeak))
}

// checkExecutions runs the tensor-executing checks on one result per model.
func checkExecutions(r *run, graphs []*graph.Graph, results []*serenity.Result) {
	for i, res := range results {
		if res != nil {
			checkExecution(r.verdict, graphs[i], fromResult(res))
		}
	}
}

func newPipeline() *serenity.Pipeline {
	p, err := serenity.NewPipeline(serenity.DefaultOptions())
	if err != nil {
		panic(err) // DefaultOptions always validates
	}
	return p
}

// runZooCold compiles every model through a fresh Pipeline with
// DefaultOptions and no memo: what a library or cmd/serenity user pays.
func runZooCold(r *run) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(zooProcs))
	pin := newPinner()
	defer pin.release()
	var graphs []*graph.Graph
	if err := r.setup(coldSetupReps, pin, func() error {
		graphs = zooModels()
		return nil
	}, nil); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	ctx := context.Background()
	props := func(_ int, res *serenity.Result) { checkProperties(r.verdict, fromResult(res), rng) }
	l := r.runZooLoop(graphs, rng, r.seconds, pin, true, func(i int) (*serenity.Result, error) {
		return newPipeline().Run(ctx, graphs[i])
	}, props)
	checkExecutions(r, graphs, l.first)
	zooCounters(r, l.first)
	if !r.traced {
		l.endToEnd(r, l.first, true)
		return nil
	}
	z := newZooTracer(r.verdict)
	var installErr error
	r.runZooLoop(graphs, rng, r.seconds, pin, true, func(i int) (*serenity.Result, error) {
		p := newPipeline()
		if installErr = z.install(p); installErr != nil {
			return nil, installErr
		}
		return z.compile(ctx, p, graphs[i], false)
	}, props)
	if installErr != nil {
		return installErr
	}
	z.layers(r, l, len(graphs))
	return nil
}

// runZooWarm fills one Pipeline's SegmentMemo in setup, then compiles the
// models in a closed loop: every segment hits the memo, so all the time goes
// to the layers around the DP.
func runZooWarm(r *run) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(zooProcs))
	pin := newPinner()
	defer pin.release()
	graphs := zooModels()
	ctx := context.Background()
	var p *serenity.Pipeline
	fill := make([]*serenity.Result, len(graphs))
	if err := r.setup(warmSetupReps, pin, func() error {
		p = newPipeline()
		p.SegmentMemo = serenity.NewSegmentMemo(memoCapacity)
		for i, g := range graphs {
			res, err := p.Run(ctx, g)
			if err != nil {
				return fmt.Errorf("filling the memo with %s: %w", g.Name, err)
			}
			fill[i] = res
		}
		return nil
	}, nil); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	refs := make([]answer, len(graphs))
	fresh := make([]*serenity.Result, len(graphs))
	for i, g := range graphs {
		res, err := newPipeline().Run(ctx, g)
		if err != nil {
			return fmt.Errorf("memo-free compile of %s: %w", g.Name, err)
		}
		fresh[i] = res
		refs[i] = fromResult(res)
		checkProperties(r.verdict, refs[i], rng)
		r.verdict.check("answer.matches_memo_free", sameAnswer(fromResult(fill[i]), refs[i]))
	}
	checkExecutions(r, graphs, fresh)
	same := func(i int, res *serenity.Result) {
		r.verdict.check("answer.matches_memo_free", sameAnswer(fromResult(res), refs[i]))
		r.verdict.check("quality.optimal", checkQuality(string(res.Quality)))
	}
	l := r.runZooLoop(graphs, rng, r.seconds, pin, false, func(i int) (*serenity.Result, error) {
		return p.Run(ctx, graphs[i])
	}, same)
	zooCounters(r, l.first)
	if !r.traced {
		l.endToEnd(r, fresh, false)
		return nil
	}
	z := newZooTracer(r.verdict)
	if err := z.install(p); err != nil {
		return err
	}
	r.runZooLoop(graphs, rng, r.seconds, pin, false, func(i int) (*serenity.Result, error) {
		return z.compile(ctx, p, graphs[i], true)
	}, same)
	z.layers(r, l, len(graphs))
	return nil
}

// zooTracer records the spans of traced zoo compiles. The pipeline's stage
// and segment events arrive through its Observer, its searcher's calls
// through tracedDP, and the calls no event brackets are timed by replaying
// them on the same input right after the compile.
type zooTracer struct {
	tr                  *tracer
	v                   *verdict
	exact               serenity.ExactDP
	trace               int64
	run, stage, segment int
	compiles            int
	states              int64
	maxFrontier         int
	peakBytes           int64
	searched            []searched
	probes              int64
	probeStates, wasted int64
}

// searched is one fresh search of the traced compile in progress.
type searched struct {
	m     *serenity.MemModel
	order []int
}

func newZooTracer(v *verdict) *zooTracer { return &zooTracer{tr: newTracer(), v: v} }

// install routes p's events and searches through z. The wrapper hides the
// searcher's parallel and memory scoping from the pipeline, so only the
// sequential, ungoverned default is traced.
func (z *zooTracer) install(p *serenity.Pipeline) error {
	exact, ok := p.Searcher.(serenity.ExactDP)
	if !ok || !exact.AdaptiveBudget || p.Parallelism > 1 || p.Govern != nil {
		return fmt.Errorf("the traced run needs a sequential, ungoverned pipeline with the adaptive exact searcher, not %T %+v", p.Searcher, p.Searcher)
	}
	p.Observer = z
	p.Searcher = tracedDP{exact: exact, z: z}
	z.exact = exact
	return nil
}

// Observe implements serenity.Observer. Stage spans are children of the
// compile's pipeline.run span; segment spans are children of the search
// stage and are named by the memo tier that answered them.
func (z *zooTracer) Observe(e serenity.Event) {
	switch e.Kind {
	case serenity.EventStageStart:
		z.stage = z.tr.begin(z.trace, z.run, string(e.Stage))
	case serenity.EventStageDone:
		z.tr.end(z.stage)
	case serenity.EventSegmentStart:
		z.segment = z.tr.begin(z.trace, z.stage, "segment")
	case serenity.EventSegmentDone:
		z.tr.endAs(z.segment, "segment."+e.MemoTier)
	}
}

// compile is one traced compile of g through p.
func (z *zooTracer) compile(ctx context.Context, p *serenity.Pipeline, g *graph.Graph, memo bool) (*serenity.Result, error) {
	z.compiles++
	z.trace = int64(z.compiles)
	root := z.tr.begin(z.trace, -1, "compile")
	defer z.tr.end(root)
	z.run = z.tr.begin(z.trace, root, "pipeline.run")
	res, err := p.Run(ctx, g)
	z.tr.end(z.run)
	if err != nil {
		return nil, err
	}
	z.replay(root, g, res, memo)
	z.probe(ctx)
	return res, nil
}

// replay times, on the compile's own input and output, the calls
// Pipeline.Run makes outside every stage event: validation, the Kahn
// baseline, the combined-order simulation and, when a memo is installed,
// the segment fingerprints. Run accepted this input, so the replayed calls
// cannot fail.
func (z *zooTracer) replay(root int, g *graph.Graph, res *serenity.Result, memo bool) {
	id := z.tr.begin(z.trace, root, "graph.validate")
	_ = g.Validate()
	z.tr.end(id)

	id = z.tr.begin(z.trace, root, "sched.baseline")
	kahn, _ := sched.KahnFIFO(g)
	_, _ = sched.NewMemModel(g).Peak(kahn)
	z.tr.end(id)

	if memo {
		part, _ := partition.Split(res.Graph)
		id = z.tr.begin(z.trace, root, "partition.fingerprint")
		for _, s := range part.Segments {
			_ = s.Fingerprint()
		}
		z.tr.end(id)
	}

	id = z.tr.begin(z.trace, root, "sched.simulate")
	_, _ = sched.NewMemModel(res.Graph).Simulate(res.Order)
	z.tr.end(id)
}

// probe repeats, untimed, each fresh search of the compile as the dp
// layer's adaptive call, whose result lists the budget probes the searcher
// does not report. The repeat must find the searcher's order: a probe that
// hits the per-step timeout may move the final budget, and then only the
// peak is compared, as any optimal order may be returned.
func (z *zooTracer) probe(ctx context.Context) {
	for _, s := range z.searched {
		ar, err := dp.AdaptiveScheduleCtx(ctx, s.m, dp.AdaptiveOptions{
			StepTimeout: z.exact.StepTimeout,
			MaxStates:   z.exact.MaxStates,
		})
		if err == nil && ar.Flag != dp.FlagSolution {
			err = fmt.Errorf("the adaptive search ended with %v", ar.Flag)
		}
		if err != nil {
			z.v.check("trace.dp_matches_searcher", err)
			continue
		}
		timedOut := false
		for _, p := range ar.Probes {
			z.probes++
			z.probeStates += p.States
			if p.Flag != dp.FlagSolution {
				z.wasted += p.States
			}
			timedOut = timedOut || p.Flag == dp.FlagTimeout
		}
		z.v.check("trace.dp_matches_searcher", sameSearch(s.m, s.order, ar.Order, timedOut))
	}
	z.searched = z.searched[:0]
}

// sameSearch compares the searcher's order with the dp layer's.
func sameSearch(m *serenity.MemModel, got, want []int, timedOut bool) error {
	if slices.Equal(got, want) {
		return nil
	}
	if !timedOut {
		return fmt.Errorf("the searcher's order differs from the dp layer's at the same budgets")
	}
	pg, err := m.Peak(got)
	if err != nil {
		return err
	}
	pw, err := m.Peak(want)
	if err != nil {
		return err
	}
	if pg != pw {
		return fmt.Errorf("the searcher's order peaks at %d bytes, the dp layer's at %d", pg, pw)
	}
	return nil
}

// tracedDP is the pipeline's exact searcher, called inside a dp.search span.
// It keeps ExactDP's name and memo key, so memo hits are unchanged.
type tracedDP struct {
	exact serenity.ExactDP
	z     *zooTracer
}

func (s tracedDP) Name() string    { return s.exact.Name() }
func (s tracedDP) MemoKey() string { return s.exact.MemoKey() }

func (s tracedDP) Search(ctx context.Context, m *serenity.MemModel) (serenity.SearchResult, error) {
	z := s.z
	id := z.tr.begin(z.trace, z.segment, "dp.search")
	res, err := s.exact.Search(ctx, m)
	z.tr.end(id)
	if err != nil {
		return res, err
	}
	z.states += res.StatesExplored
	z.maxFrontier = max(z.maxFrontier, res.MaxFrontier)
	z.peakBytes = max(z.peakBytes, res.PeakBytes)
	z.searched = append(z.searched, searched{m: m, order: res.Order})
	return res, nil
}

// layers records the per-layer metrics of the traced loop and prints the
// reconciliation: the layer self times plus the unattributed remainder make
// up the traced pipeline.run time, and that less the untraced compile time
// is the tracing overhead.
func (z *zooTracer) layers(r *run, untraced *zooLoop, nModels int) {
	lt := z.tr.layers()
	n := float64(z.compiles)
	passes := n / float64(nModels)
	perCompile := func(names ...string) float64 {
		var d time.Duration
		for _, name := range names {
			d += lt[name].Self
		}
		return us(d) / n
	}
	// Each row is one layer's self time per compile; together they cover
	// every span inside pipeline.run except the search stage's own
	// bookkeeping, plus the replayed calls that no stage event brackets.
	rows := []struct {
		metric, label string
		value         float64
	}{
		{"graph.validate_us", "graph.validate", perCompile("graph.validate")},
		{"sched.baseline_us", "sched.baseline", perCompile("sched.baseline")},
		{"rewrite.us", "rewrite", perCompile("rewrite")},
		{"partition.us", "partition (Split + fingerprints)", perCompile("partition", "partition.fingerprint")},
		{"", "segments answered by the memo", perCompile("segment.memory")},
		{"", "fresh segments, outside the DP", perCompile("segment.fresh")},
		{"", "dp.search", perCompile("dp.search")},
		{"sched.simulate_us", "sched.simulate", perCompile("sched.simulate")},
		{"alloc.us", "alloc", perCompile("alloc")},
	}
	var sum float64
	for _, row := range rows {
		sum += row.value
		if row.metric != "" {
			r.set(row.metric, row.value)
		}
	}
	run := us(lt["pipeline.run"].Total) / n
	unattributed := run - sum
	untracedUS := 1000 * mean(untraced.all())
	r.set("pipeline.unattributed_us", unattributed)
	r.set("trace.overhead_us", run-untracedUS)
	if hits := lt["segment.memory"]; hits.Count > 0 {
		r.set("segmemo.hit_us", us(hits.Total)/float64(hits.Count))
	}

	dpTime := lt["dp.search"].Total
	r.set("dp.search_ms", ms(dpTime)/passes)
	if dpTime > 0 {
		r.set("dp.states_per_s", float64(z.states)/dpTime.Seconds())
	}
	r.set("dp.max_frontier", float64(z.maxFrontier))
	r.set("dp.peak_bytes", float64(z.peakBytes))
	r.set("dp.probes", float64(z.probes)/passes)
	if z.probeStates > 0 {
		r.set("dp.wasted_states_ratio", float64(z.wasted)/float64(z.probeStates))
	}

	r.printf("reconciliation over %d traced compiles (mean us per compile):\n", z.compiles)
	for _, row := range rows {
		r.printf("  %-34s %12.3f\n", row.label, row.value)
	}
	r.printf("  %-34s %12.3f\n", "pipeline.unattributed", unattributed)
	r.printf("  %-34s %12.3f  = traced pipeline.run\n", "sum", sum+unattributed)
	r.printf("  %-34s %12.3f  (untraced compile %.3f)\n", "tracing overhead", run-untracedUS, untracedUS)
	if err := z.tr.write(r.tracePath()); err != nil {
		r.printf("spans not written: %v\n", err)
	}
}
