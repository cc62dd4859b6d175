package main

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/exec"
	"github.com/serenity-ml/serenity/internal/graph"
)

// The checks below judge a schedule by properties the method must have and
// by computations made here, apart from the program: the memory model, the
// tensor lifetimes and the random orders are re-implemented in this file
// rather than taken from internal/sched or internal/alloc.

const (
	// randomOrders is how many seeded random topological orders each answer's
	// peak is compared against.
	randomOrders = 32
	// rewriteTolerance bounds the output difference between a graph and its
	// rewritten form: rewriting reorders float32 accumulation, nothing more.
	rewriteTolerance = 2e-3
)

// answer is one schedule under check: the order, peak and arena a compile
// produced for G (Result.Graph: the rewritten graph when rewriting applied).
// Offsets is nil for served answers, whose wire form omits them.
type answer struct {
	G            *graph.Graph
	Order        []int
	Peak         int64
	ArenaSize    int64
	Offsets      []int64
	BaselinePeak int64
	Quality      string
}

func fromResult(r *serenity.Result) answer {
	return answer{
		G: r.Graph, Order: r.Order, Peak: r.Peak, ArenaSize: r.ArenaSize,
		Offsets: r.Offsets, BaselinePeak: r.BaselinePeak, Quality: string(r.Quality),
	}
}

// verdict collects failed checks by name.
type verdict struct {
	checked int
	failed  map[string]int
	first   map[string]string
}

func newVerdict() *verdict {
	return &verdict{failed: map[string]int{}, first: map[string]string{}}
}

// check records the outcome of one named check on one answer.
func (v *verdict) check(name string, err error) {
	v.checked++
	if err == nil {
		return
	}
	if v.failed[name] == 0 {
		v.first[name] = err.Error()
	}
	v.failed[name]++
}

// merge adds o's outcomes to v.
func (v *verdict) merge(o *verdict) {
	v.checked += o.checked
	for name, n := range o.failed {
		if v.failed[name] == 0 {
			v.first[name] = o.first[name]
		}
		v.failed[name] += n
	}
}

func (v *verdict) ok() bool { return len(v.failed) == 0 }

// report prints one line per failed check, or a single line if all passed.
func (v *verdict) report(w io.Writer) {
	if v.ok() {
		fmt.Fprintf(w, "checks: all %d passed\n", v.checked)
		return
	}
	names := make([]string, 0, len(v.failed))
	for n := range v.failed {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "check FAILED: %s (%d times; first: %s)\n", n, v.failed[n], v.first[n])
	}
}

// checkProperties runs every check that needs no reference answer and no
// tensor execution; rng draws the random orders.
func checkProperties(v *verdict, a answer, rng *rand.Rand) {
	err := checkOrder(a.G, a.Order)
	v.check("order.valid", err)
	if err != nil {
		return // the remaining checks replay the order
	}
	v.check("peak.replayed", checkPeak(a.G, a.Order, a.Peak))
	v.check("peak.below_baseline", atMost("peak", a.Peak, "baseline peak", a.BaselinePeak))
	v.check("peak.below_random_orders", checkRandomOrders(a.G, a.Peak, rng, randomOrders))
	v.check("arena.covers_peak", atMost("peak", a.Peak, "arena size", a.ArenaSize))
	if a.Offsets != nil {
		v.check("arena.no_overlap", checkArena(a.G, a.Order, a.Offsets, a.ArenaSize))
	}
	v.check("quality.optimal", checkQuality(a.Quality))
}

// checkExecution runs the schedule inside its planned arena against the
// reference executor, and the rewritten graph against its source.
func checkExecution(v *verdict, src *graph.Graph, a answer) {
	v.check("exec.arena_matches_reference", func() error {
		d, err := exec.VerifyArenaExecution(a.G, a.Order)
		if err != nil {
			return err
		}
		if d != 0 {
			return fmt.Errorf("%s: arena execution diverges by %g", a.G.Name, d)
		}
		return nil
	}())
	if a.G != src {
		v.check("exec.rewrite_preserves_outputs", func() error {
			d, err := exec.MaxOutputDiff(src, a.G)
			if err != nil {
				return err
			}
			if d > rewriteTolerance {
				return fmt.Errorf("%s: rewritten graph's outputs differ by %g (tolerance %g)", src.Name, d, rewriteTolerance)
			}
			return nil
		}())
	}
}

func checkQuality(q string) error {
	if q != string(serenity.QualityOptimal) {
		return fmt.Errorf("quality %q, want %q", q, serenity.QualityOptimal)
	}
	return nil
}

func atMost(what string, x int64, limit string, y int64) error {
	if x > y {
		return fmt.Errorf("%s %d above %s %d", what, x, limit, y)
	}
	return nil
}

// sameAnswer reports whether got is the answer want: same order, peak, arena
// size and baseline peak, and the same offsets when both carry them.
func sameAnswer(got, want answer) error {
	switch {
	case !slices.Equal(got.Order, want.Order):
		return fmt.Errorf("%s: order differs from the memo-free compile", want.G.Name)
	case got.Peak != want.Peak:
		return fmt.Errorf("%s: peak %d, memo-free compile %d", want.G.Name, got.Peak, want.Peak)
	case got.ArenaSize != want.ArenaSize:
		return fmt.Errorf("%s: arena %d, memo-free compile %d", want.G.Name, got.ArenaSize, want.ArenaSize)
	case got.BaselinePeak != want.BaselinePeak:
		return fmt.Errorf("%s: baseline peak %d, memo-free compile %d", want.G.Name, got.BaselinePeak, want.BaselinePeak)
	case got.Offsets != nil && want.Offsets != nil && !slices.Equal(got.Offsets, want.Offsets):
		return fmt.Errorf("%s: arena offsets differ from the memo-free compile", want.G.Name)
	}
	return nil
}

// checkOrder reports whether order runs every node of g exactly once and
// each after all of its predecessors.
func checkOrder(g *graph.Graph, order []int) error {
	n := g.NumNodes()
	if len(order) != n {
		return fmt.Errorf("%s: order has %d entries for %d nodes", g.Name, len(order), n)
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, u := range order {
		if u < 0 || u >= n {
			return fmt.Errorf("%s: order names node %d, outside the graph", g.Name, u)
		}
		if pos[u] >= 0 {
			return fmt.Errorf("%s: node %d runs twice", g.Name, u)
		}
		pos[u] = i
	}
	for _, nd := range g.Nodes {
		for _, p := range nd.Preds {
			if pos[p] > pos[nd.ID] {
				return fmt.Errorf("%s: node %d runs before its input %d", g.Name, nd.ID, p)
			}
		}
	}
	return nil
}

// memModel is the paper's activation-memory model, built from the graph
// alone: running a node allocates its output unless the output aliases
// another node's storage; a physical tensor is freed once every node reading
// any view of it has run; a tensor nobody reads stays live to the end.
type memModel struct {
	root      []int   // physical storage root of each node's output
	alloc     []int64 // bytes allocated when the node runs
	size      []int64 // bytes of the tensor rooted at the node
	readers   []int   // number of distinct nodes reading each root
	readRoots [][]int // distinct roots each node reads
}

func newMemModel(g *graph.Graph) *memModel {
	n := g.NumNodes()
	m := &memModel{
		root: make([]int, n), alloc: make([]int64, n), size: make([]int64, n),
		readers: make([]int, n), readRoots: make([][]int, n),
	}
	for _, nd := range g.Nodes {
		r := nd.ID
		for steps := 0; g.Nodes[r].Attr.AliasOf >= 0 && steps <= n; steps++ {
			r = g.Nodes[r].Attr.AliasOf
		}
		m.root[nd.ID] = r
		bytes := nd.Shape.Elems() * nd.DType.Size()
		if nd.Attr.AliasOf < 0 {
			m.alloc[nd.ID] = bytes
		}
		if r == nd.ID {
			m.size[nd.ID] = bytes
		}
	}
	for _, nd := range g.Nodes {
		for _, p := range nd.Preds {
			r := m.root[p]
			if !slices.Contains(m.readRoots[nd.ID], r) {
				m.readRoots[nd.ID] = append(m.readRoots[nd.ID], r)
				m.readers[r]++
			}
		}
	}
	return m
}

// peak replays a valid order and returns its peak live bytes.
func (m *memModel) peak(order []int) int64 {
	left := slices.Clone(m.readers)
	var live, peak int64
	for _, u := range order {
		live += m.alloc[u]
		peak = max(peak, live)
		for _, r := range m.readRoots[u] {
			if left[r]--; left[r] == 0 {
				live -= m.size[r]
			}
		}
	}
	return peak
}

// lifetime is the closed step interval a physical tensor occupies.
type lifetime struct {
	root       int
	size       int64
	start, end int
}

// lifetimes lists every non-empty physical tensor's lifetime under a valid
// order: from the step that produces it to the step of its last reader.
func (m *memModel) lifetimes(order []int) []lifetime {
	pos := make([]int, len(order))
	for i, u := range order {
		pos[u] = i
	}
	end := make([]int, len(order))
	for r := range end {
		end[r] = -1
	}
	for u, roots := range m.readRoots {
		for _, r := range roots {
			end[r] = max(end[r], pos[u])
		}
	}
	var out []lifetime
	for r := range order {
		if m.root[r] != r || m.size[r] == 0 {
			continue
		}
		lt := lifetime{root: r, size: m.size[r], start: pos[r], end: end[r]}
		if m.readers[r] == 0 {
			lt.end = len(order) - 1
		}
		out = append(out, lt)
	}
	return out
}

func checkPeak(g *graph.Graph, order []int, peak int64) error {
	if got := newMemModel(g).peak(order); got != peak {
		return fmt.Errorf("%s: reported peak %d, replayed peak %d", g.Name, peak, got)
	}
	return nil
}

// checkArena reports whether every physical tensor has an offset inside the
// arena and no two tensors live at the same step share a byte.
func checkArena(g *graph.Graph, order []int, offsets []int64, arena int64) error {
	if len(offsets) != g.NumNodes() {
		return fmt.Errorf("%s: %d offsets for %d nodes", g.Name, len(offsets), g.NumNodes())
	}
	lts := newMemModel(g).lifetimes(order)
	for _, lt := range lts {
		if off := offsets[lt.root]; off < 0 || off+lt.size > arena {
			return fmt.Errorf("%s: tensor %d at [%d,%d) outside the %d-byte arena", g.Name, lt.root, off, off+lt.size, arena)
		}
	}
	for i, a := range lts {
		for _, b := range lts[i+1:] {
			if a.start > b.end || b.start > a.end {
				continue
			}
			oa, ob := offsets[a.root], offsets[b.root]
			if oa < ob+b.size && ob < oa+a.size {
				return fmt.Errorf("%s: live tensors %d at [%d,%d) and %d at [%d,%d) overlap",
					g.Name, a.root, oa, oa+a.size, b.root, ob, ob+b.size)
			}
		}
	}
	return nil
}

// randomTopoOrder draws a topological order by running, at every step, a
// node chosen uniformly among those whose inputs have all run.
func randomTopoOrder(g *graph.Graph, rng *rand.Rand) []int {
	indeg := make([]int, g.NumNodes())
	var ready []int
	for _, nd := range g.Nodes {
		indeg[nd.ID] = len(nd.Preds)
		if indeg[nd.ID] == 0 {
			ready = append(ready, nd.ID)
		}
	}
	order := make([]int, 0, g.NumNodes())
	for len(ready) > 0 {
		i := rng.Intn(len(ready))
		u := ready[i]
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, u)
		for _, s := range g.Nodes[u].Succs {
			if indeg[s]--; indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return order
}

// checkRandomOrders reports whether peak is no higher than the best of n
// seeded random topological orders of g: an optimal schedule beats them all.
func checkRandomOrders(g *graph.Graph, peak int64, rng *rand.Rand, n int) error {
	m := newMemModel(g)
	for i := 0; i < n; i++ {
		o := randomTopoOrder(g, rng)
		if p := m.peak(o); p < peak {
			return fmt.Errorf("%s: random order %d peaks at %d, below the reported optimum %d", g.Name, i, p, peak)
		}
	}
	return nil
}
