package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/models"
)

// The serve-mix traffic: stacked RandWire networks built from a fixed pool
// of cell wirings at two input resolutions. Every round of roundSize
// requests holds, in a seeded order, repeatsPerRound exact repeats of the
// hot set (response-cache hits), knownPerRound never-sent combinations of
// pool cells (every segment a memo hit) and freshPerRound networks carrying
// one never-seen cell wiring (one fresh DP, written through to the store).
const (
	poolSize         = 10
	cellsPerNetwork  = 4
	cellNodes        = 16
	hotPerResolution = 8
	roundSize        = 20
	repeatsPerRound  = 12
	knownPerRound    = 6
	freshPerRound    = roundSize - repeatsPerRound - knownPerRound
	serveSetupReps   = 5
	// execSample is how many networks of each kind per run also have their
	// schedule executed in its arena: an execution costs tens of
	// milliseconds, the other checks run on every network.
	execSample = 4
)

// resolutions are the two input sizes. Shapes are part of a segment's
// fingerprint, so one wiring at the two sizes is two memo entries.
var resolutions = [2]struct{ hw, ch int }{{16, 16}, {32, 16}}

// Request kinds.
const (
	kindRepeat = iota
	kindKnown
	kindFresh
)

var (
	kindNames  = [3]string{"repeat", "known-cells", "new-cell"}
	kindMetric = [3]string{"repeat", "known_cells", "new_cell"}
)

// network is one request's graph: a resolution and the wiring seed of each
// stacked cell.
type network struct {
	kind  int
	res   int
	cells [cellsPerNetwork]int64
}

func (n network) key() string { return fmt.Sprintf("r%d-%v", n.res, n.cells) }

func poolSeed(i int) int64 { return int64(1000 + i) }

// build stacks the network's cells: each cell is a WS(16, 4, 0.75) RandWire
// cell whose input is the previous cell's output.
func (n network) build() *graph.Graph {
	hw, ch := resolutions[n.res].hw, resolutions[n.res].ch
	b := graph.NewBuilder("mix-" + n.key())
	cur := b.Input(graph.Shape{1, hw, hw, ch})
	g := b.Graph()
	for c, seed := range n.cells {
		cell := models.RandWireCell("cell", models.WSConfig{Nodes: cellNodes, K: 4, P: 0.75, Seed: seed, HW: hw, Channel: ch})
		ids := make([]int, cell.NumNodes())
		for _, nd := range cell.Nodes {
			if nd.Op == graph.OpInput {
				ids[nd.ID] = cur
				continue
			}
			preds := make([]int, len(nd.Preds))
			for i, p := range nd.Preds {
				preds[i] = ids[p]
			}
			id := g.AddNode(nd.Op, fmt.Sprintf("c%d/%s", c, nd.Name), nd.Shape, preds...)
			g.Nodes[id].DType = nd.DType
			g.Nodes[id].Attr = nd.Attr
			ids[nd.ID] = id
		}
		cur = ids[len(ids)-1]
	}
	return g
}

func body(n network) ([]byte, error) {
	var buf bytes.Buffer
	if err := serenity.WriteGraphJSON(&buf, n.build()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// hotSet is the fixed set the repeats draw from: hotPerResolution networks
// at each resolution whose cells together cover the whole pool, so serving
// it in setup fills the memo with every pool cell.
func hotSet() []network {
	var hot []network
	for res := range resolutions {
		for j := 0; j < hotPerResolution; j++ {
			n := network{kind: kindRepeat, res: res}
			for k := range n.cells {
				n.cells[k] = poolSeed((3*j + k) % poolSize)
			}
			hot = append(hot, n)
		}
	}
	return hot
}

// traffic hands out the seeded request stream in chunks of whole rounds:
// once the phase's time is up, no new chunk starts, and the current one is
// finished. A chunk is planned, and the bodies of its new networks built,
// while no request is in flight and the phase's clock is stopped, so the
// load generator does not build graphs on the CPUs the server is measured
// on.
type traffic struct {
	mu       sync.Mutex
	idle     *sync.Cond // broadcast when a request ends
	rng      *rand.Rand
	hot      []network
	hotBody  map[string][]byte
	sent     map[string]bool
	next     int       // index of the next request to hand out
	queue    []request // planned requests from index base on
	base     int
	inflight int
	begin    time.Time
	paused   time.Duration
	limit    time.Duration
	done     bool
	chunks   []chunk // of the current phase
}

// chunk is one planned stretch of the stream, sent while no other chunk is:
// requests first to first+n-1, between start and end on the phase's clock,
// during which the host took steal of the machine's CPU time.
type chunk struct {
	first, n       int
	start, end     time.Duration
	steal          float64
	steal0, total0 int64
	stealOK, open  bool
}

// request is one planned request of the stream; err is set when its body
// could not be built, and the request then fails.
type request struct {
	idx  int
	net  network
	body []byte
	err  error
}

// chunkRounds is how many rounds are planned at a time: about two seconds
// of traffic, whose bodies take about 15 MB.
const chunkRounds = 50

// chunkSize is the number of requests in a chunk.
const chunkSize = chunkRounds * roundSize

func newTraffic(seed int64, hot []network) (*traffic, error) {
	t := &traffic{rng: rand.New(rand.NewSource(seed)), hot: hot, hotBody: map[string][]byte{}, sent: map[string]bool{}}
	t.idle = sync.NewCond(&t.mu)
	for _, n := range hot {
		b, err := body(n)
		if err != nil {
			return nil, err
		}
		t.hotBody[n.key()] = b
		t.sent[n.key()] = true
	}
	return t, nil
}

// start opens a new phase of d with a new chunk; requests keep their
// indices across phases, and requests planned but not sent are dropped.
func (t *traffic) start(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.begin, t.paused, t.limit, t.done = time.Now(), 0, d, false
	t.base, t.queue, t.chunks = t.next, t.queue[:0], nil
}

// clock is the phase's running time, planning excluded; t.mu is held.
func (t *traffic) clock() time.Duration { return time.Since(t.begin) - t.paused }

// take returns the next request, or false once the phase is over at a
// chunk boundary. Every request taken must be ended with finish.
func (t *traffic) take() (request, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.next == t.base+len(t.queue) {
		if t.inflight > 0 {
			t.idle.Wait()
			continue
		}
		t.closeChunk()
		if t.done || t.clock() >= t.limit {
			t.done = true
			return request{}, false
		}
		t0 := time.Now()
		t.plan()
		t.paused += time.Since(t0)
		c := chunk{first: t.base, n: len(t.queue), start: t.clock(), open: true}
		c.steal0, c.total0, c.stealOK = cpuSteal()
		t.chunks = append(t.chunks, c)
	}
	req := t.queue[t.next-t.base]
	t.next++
	t.inflight++
	return req, true
}

// finish ends a request taken and returns the phase's clock.
func (t *traffic) finish() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.inflight--
	t.idle.Broadcast()
	return t.clock()
}

// closeChunk ends the open chunk, if there is one; t.mu is held and no
// request is in flight.
func (t *traffic) closeChunk() {
	if len(t.chunks) == 0 || !t.chunks[len(t.chunks)-1].open {
		return
	}
	c := &t.chunks[len(t.chunks)-1]
	c.open, c.end = false, t.clock()
	if steal, total, ok := cpuSteal(); ok && c.stealOK && total > c.total0 {
		c.steal = float64(steal-c.steal0) / float64(total-c.total0)
	}
}

// plan replaces the queue with the next chunkRounds rounds.
func (t *traffic) plan() {
	t.base += len(t.queue)
	t.queue = t.queue[:0]
	for r := 0; r < chunkRounds; r++ {
		for _, n := range t.planRound() {
			req := request{idx: t.base + len(t.queue), net: n, body: t.hotBody[n.key()]}
			if req.body == nil {
				req.body, req.err = body(n)
			}
			t.queue = append(t.queue, req)
		}
	}
}

func (t *traffic) planRound() []network {
	kinds := make([]int, 0, roundSize)
	for k, count := range [3]int{repeatsPerRound, knownPerRound, freshPerRound} {
		for i := 0; i < count; i++ {
			kinds = append(kinds, k)
		}
	}
	t.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	round := make([]network, roundSize)
	for i, k := range kinds {
		switch k {
		case kindRepeat:
			round[i] = t.hot[t.rng.Intn(len(t.hot))]
		case kindKnown:
			round[i] = t.unsent(kindKnown, -1)
		case kindFresh:
			round[i] = t.unsent(kindFresh, t.rng.Intn(cellsPerNetwork))
		}
	}
	return round
}

// unsent draws pool cells until the network is one never sent before; a
// fresh network carries a never-seen wiring at position freshAt.
func (t *traffic) unsent(kind, freshAt int) network {
	for {
		n := network{kind: kind, res: t.rng.Intn(len(resolutions))}
		for k := range n.cells {
			n.cells[k] = poolSeed(t.rng.Intn(poolSize))
		}
		if freshAt >= 0 {
			n.cells[freshAt] = poolSeed(poolSize) + 1 + t.rng.Int63n(1<<40)
		}
		if !t.sent[n.key()] {
			t.sent[n.key()] = true
			return n
		}
	}
}

// wireAnswer is the part of a /v1/schedule response the benchmark reads.
type wireAnswer struct {
	Order           []int   `json:"order"`
	Peak            int64   `json:"peak"`
	ArenaSize       int64   `json:"arena_size"`
	BaselinePeak    int64   `json:"baseline_peak"`
	Quality         string  `json:"quality"`
	Rewrites        int     `json:"rewrites"`
	PartitionSizes  []int   `json:"partition_sizes"`
	SegmentMemoHits int     `json:"segment_memo_hits"`
	SchedulingMS    float64 `json:"scheduling_ms"`
	Cached          bool    `json:"cached"`
}

// sample is one request's outcome; done is when its answer arrived on the
// phase's clock.
type sample struct {
	idx     int
	net     network
	latency time.Duration
	done    time.Duration
	answer  wireAnswer
	err     error
}

// server is one serenityd process with a fresh store directory.
type server struct {
	cmd    *osexec.Cmd
	exited chan error
	url    string
	dir    string
	log    *os.File
	client *http.Client
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer starts serenityd with default flags and a persistent store in
// a fresh directory, and waits until it reports ready.
func startServer(bin, workdir string, clients int) (*server, error) {
	if bin == "" {
		return nil, errors.New("serve-mix needs --serenityd")
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	base := filepath.Join(workdir, "serve")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "store-")
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(dir + ".log")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cmd := osexec.Command(bin, "-addr", fmt.Sprintf("127.0.0.1:%d", port), "-store-dir", dir)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{
		cmd: cmd, exited: make(chan error, 1), url: fmt.Sprintf("http://127.0.0.1:%d", port),
		dir: dir, log: logf,
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients + 1},
		},
	}
	go func() { s.exited <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.client.Get(s.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		var why string
		select {
		case err := <-s.exited:
			s.exited <- err
			why = fmt.Sprintf("exited before it was ready (%v)", err)
		case <-time.After(2 * time.Millisecond):
			if time.Now().After(deadline) {
				why = "not ready after 30s"
			}
		}
		if why != "" {
			log, _ := os.ReadFile(logf.Name())
			s.stop()
			return nil, fmt.Errorf("serenityd %s; its log:\n%s", why, log[max(0, len(log)-2048):])
		}
	}
}

// stop ends the server gracefully, killing it if it does not exit in time,
// waits for it, and removes its store.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.client.CloseIdleConnections()
	s.log.Close()
	os.RemoveAll(s.dir)
	os.Remove(s.log.Name())
}

// post sends one schedule request and decodes the answer; the latency
// covers the round trip until the whole body is read.
func (s *server) post(b []byte) (wireAnswer, time.Duration, error) {
	var a wireAnswer
	t0 := time.Now()
	resp, err := s.client.Post(s.url+"/v1/schedule", "application/json", bytes.NewReader(b))
	if err != nil {
		return a, time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return a, lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return a, lat, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &a); err != nil {
		return a, lat, fmt.Errorf("decoding the answer: %w", err)
	}
	return a, lat, nil
}

// metrics reads /metrics, summing the series of each name over its labels.
func (s *server) metrics() (map[string]float64, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// settledMetrics reads /metrics once the store's write-behind queue has
// drained: two reads 50 ms apart agree on the store's write count.
func (s *server) settledMetrics() (map[string]float64, error) {
	prev, err := s.metrics()
	for i := 0; err == nil && i < 40; i++ {
		time.Sleep(50 * time.Millisecond)
		var cur map[string]float64
		if cur, err = s.metrics(); err == nil {
			if cur["serenityd_store_writes_total"] == prev["serenityd_store_writes_total"] {
				return cur, nil
			}
			prev = cur
		}
	}
	return prev, err
}

// servePhase is one closed-loop phase against the server.
type servePhase struct {
	samples []sample // by index, one per request sent
	chunks  []chunk
	elapsed time.Duration
	before  map[string]float64
	after   map[string]float64
	waiting []float64 // sampled admission queue lengths (traced phases)
	tr      *tracer
}

func (p *servePhase) delta(name string) float64 { return p.after[name] - p.before[name] }

// runPhase drives the closed loop: clients each send a request, wait for
// its answer, then take the next one, until the phase's rounds are done.
func runPhase(s *server, t *traffic, clients int, d time.Duration, traced bool) (*servePhase, error) {
	p := &servePhase{}
	if traced {
		p.tr = newTracer()
	}
	var err error
	if p.before, err = s.settledMetrics(); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	if traced {
		// The server exports its admission queue as a gauge only, so the
		// traced phase samples it.
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			for {
				select {
				case <-stopPoll:
					return
				case <-time.After(100 * time.Millisecond):
				}
				if m, err := s.metrics(); err == nil {
					p.waiting = append(p.waiting, m["serenityd_admission_waiting"])
				}
			}
		}()
	}
	perClient := make([][]sample, clients)
	var wg sync.WaitGroup
	t.start(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				req, ok := t.take()
				if !ok {
					return
				}
				smp := p.send(s, req)
				smp.done = t.finish()
				perClient[c] = append(perClient[c], smp)
			}
		}(c)
	}
	wg.Wait()
	t.mu.Lock()
	p.elapsed, p.chunks = t.clock(), t.chunks
	t.mu.Unlock()
	close(stopPoll)
	pollWG.Wait()
	if p.after, err = s.settledMetrics(); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	for _, ss := range perClient {
		p.samples = append(p.samples, ss...)
	}
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].idx < p.samples[j].idx })
	return p, nil
}

// send makes one request. The traced phase also decodes and fingerprints
// the body in-process, the first two things the server does with it, each
// inside its own span.
func (p *servePhase) send(s *server, req request) sample {
	i, b := req.idx, req.body
	smp := sample{idx: i, net: req.net, err: req.err}
	if smp.err != nil {
		return smp
	}
	root := p.tr.begin(int64(i), -1, "request")
	if p.tr != nil {
		id := p.tr.begin(int64(i), root, "graph.decode")
		g, err := serenity.ReadGraphJSON(bytes.NewReader(b))
		p.tr.end(id)
		if err == nil {
			id = p.tr.begin(int64(i), root, "graph.fingerprint")
			_ = g.Fingerprint()
			p.tr.end(id)
		}
	}
	id := p.tr.begin(int64(i), root, "serenityd.schedule")
	smp.answer, smp.latency, smp.err = s.post(b)
	p.tr.end(id)
	p.tr.end(root)
	return smp
}

// runServeMix serves the mixed traffic from a fresh serenityd process.
func runServeMix(r *run) error {
	clients := runtime.NumCPU()
	hot := hotSet()
	t, err := newTraffic(r.seed, hot)
	if err != nil {
		return err
	}
	var s *server
	defer func() {
		if s != nil {
			s.stop()
		}
	}()
	err = r.setup(serveSetupReps, nil, func() error {
		var err error
		if s, err = startServer(r.serenityd, r.workdir, clients); err != nil {
			return err
		}
		for _, n := range hot {
			if _, _, err := s.post(t.hotBody[n.key()]); err != nil {
				return fmt.Errorf("warming %s: %w", n.key(), err)
			}
		}
		return nil
	}, func() {
		s.stop()
		s = nil
	})
	if err != nil {
		return err
	}

	phase, err := runPhase(s, t, clients, r.seconds, false)
	if err != nil {
		return err
	}
	phases := []*servePhase{phase}
	var traced *servePhase
	if r.traced {
		if traced, err = runPhase(s, t, clients, r.seconds, true); err != nil {
			return err
		}
		phases = append(phases, traced)
	}
	s.stop()
	s = nil

	searchPeak, err := r.checkServed(hot, phases)
	if err != nil {
		return err
	}
	r.printf("traffic: %d clients, rounds of %d (%d repeats, %d known-cell, %d new-cell)\n",
		clients, roundSize, repeatsPerRound, knownPerRound, freshPerRound)
	// The untraced phase's latencies by kind are layer metrics too.
	phase.endToEnd(r, searchPeak)
	if !r.traced {
		phase.counters(r)
		return nil
	}
	traced.layers(r, phase)
	return nil
}

// servedNetwork is one distinct network with every answer served for it.
type servedNetwork struct {
	net     network
	answers []wireAnswer
	execute bool
	// Outcomes of checking it, filled by check.
	verdict    *verdict
	searchPeak int64
	err        error
}

// check compiles the network memo-free in-process, checks that compile's
// properties, and compares every served answer with it.
func (sn *servedNetwork) check(rng *rand.Rand) {
	sn.verdict = newVerdict()
	g := sn.net.build()
	res, err := newPipeline().Run(context.Background(), g)
	if err != nil {
		sn.err = fmt.Errorf("memo-free compile of %s: %w", sn.net.key(), err)
		return
	}
	sn.searchPeak = res.SearchPeakBytes
	ref := fromResult(res)
	checkProperties(sn.verdict, ref, rng)
	if sn.execute {
		checkExecution(sn.verdict, g, ref)
	}
	for _, w := range sn.answers {
		got := answer{G: ref.G, Order: w.Order, Peak: w.Peak, ArenaSize: w.ArenaSize,
			BaselinePeak: w.BaselinePeak, Quality: w.Quality}
		sn.verdict.check("answer.matches_memo_free", sameAnswer(got, ref))
		sn.verdict.check("quality.optimal", checkQuality(w.Quality))
	}
}

// checkServed counts the requests and their failures, then checks every
// distinct network served, hot set included, on all CPUs (the server has
// stopped). It returns each network's search peak bytes by key.
func (r *run) checkServed(hot []network, phases []*servePhase) (map[string]int64, error) {
	var nets []*servedNetwork
	byKey := map[string]*servedNetwork{}
	executed := [3]int{}
	add := func(n network) *servedNetwork {
		sn := byKey[n.key()]
		if sn == nil {
			sn = &servedNetwork{net: n, execute: executed[n.kind] < execSample}
			if sn.execute {
				executed[n.kind]++
			}
			byKey[n.key()] = sn
			nets = append(nets, sn)
		}
		return sn
	}
	for _, n := range hot {
		add(n)
	}
	for _, p := range phases {
		for _, smp := range p.samples {
			r.attempted++
			if smp.err != nil {
				r.opFailed(fmt.Errorf("request %d (%s): %w", smp.idx, kindNames[smp.net.kind], smp.err))
				continue
			}
			sn := add(smp.net)
			sn.answers = append(sn.answers, smp.answer)
		}
	}

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				nets[i].check(rand.New(rand.NewSource(r.seed*7919 + int64(i))))
			}
		}()
	}
	for i := range nets {
		next <- i
	}
	close(next)
	wg.Wait()

	searchPeak := map[string]int64{}
	for _, sn := range nets {
		if sn.err != nil {
			return nil, sn.err
		}
		r.verdict.merge(sn.verdict)
		searchPeak[sn.net.key()] = sn.searchPeak
	}
	return searchPeak, nil
}

// ok returns the phase's successful samples.
func (p *servePhase) ok() []sample {
	var out []sample
	for _, s := range p.samples {
		if s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

// rounds is the number of whole rounds the phase sent.
func (p *servePhase) rounds() float64 { return float64(len(p.samples)) / roundSize }

// calm returns the least-stolen half of the phase's chunks, at least one.
// On a shared virtual machine the host runs other guests on this one's
// CPUs for stretches of seconds to minutes, and every request of a chunk it
// takes a large share of is slower, whatever the program does. The
// program cannot move the host's share, so leaving the most-stolen chunks
// out removes noise without favouring fast chunks of the program's own.
func (p *servePhase) calm() []chunk {
	cs := append([]chunk(nil), p.chunks...)
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].steal < cs[j].steal })
	cs = cs[:(len(cs)+1)/2]
	sort.Slice(cs, func(i, j int) bool { return cs[i].first < cs[j].first })
	return cs
}

// in returns the samples of chunk c.
func (p *servePhase) in(c chunk) []sample {
	i := c.first - p.samples[0].idx
	return p.samples[i : i+c.n]
}

// counters prints the deterministic per-round counts.
func (p *servePhase) counters(r *run) {
	var sites, segments, nodesMax int64
	for _, s := range p.ok() {
		sites += int64(s.answer.Rewrites)
		segments += int64(len(s.answer.PartitionSizes))
		for _, n := range s.answer.PartitionSizes {
			nodesMax = max(nodesMax, int64(n))
		}
	}
	n := p.rounds()
	r.counter("dp.states", p.delta("serenityd_states_explored_total")/n, "round")
	r.counter("rewrite.sites", float64(sites)/n, "round")
	r.counter("partition.segments", float64(segments)/n, "round")
	r.counter("segmemo.hits", p.delta("serenityd_segment_memo_hits_total")/n, "round")
	r.counter("store.writes", p.delta("serenityd_store_writes_total")/n, "round")
	r.set("partition.max_segment_nodes", float64(nodesMax))
}

// endToEnd records the phase's end-to-end metrics. The timings are taken
// over the calm chunks; the properties of the answers over all of them.
func (p *servePhase) endToEnd(r *run, searchPeak map[string]int64) {
	roundSearchPeak := map[int]int64{}
	reductions := map[string]float64{}
	for _, s := range p.ok() {
		round := s.idx / roundSize
		roundSearchPeak[round] = max(roundSearchPeak[round], searchPeak[s.net.key()])
		reductions[s.net.key()] = float64(s.answer.BaselinePeak) / float64(s.answer.ArenaSize)
	}
	var searchPeaks, red []float64
	for _, x := range roundSearchPeak {
		searchPeaks = append(searchPeaks, float64(x))
	}
	for _, x := range reductions {
		red = append(red, x)
	}

	// Each calm chunk holds a thousand answers, ten of them beyond its p99;
	// the latency percentiles and the rate are medians over those chunks.
	calm := p.calm()
	var all, p50s, p99s, rates []float64
	byKind := [3][]float64{}
	roundLatency := map[int]float64{}
	for _, c := range calm {
		var lat []float64
		for _, s := range p.in(c) {
			if s.err != nil {
				continue
			}
			l := ms(s.latency)
			lat = append(lat, l)
			byKind[s.net.kind] = append(byKind[s.net.kind], l)
			roundLatency[s.idx/roundSize] += s.latency.Seconds()
		}
		all = append(all, lat...)
		p50s = append(p50s, quantile(lat, 0.50))
		p99s = append(p99s, quantile(lat, 0.99))
		rates = append(rates, float64(len(lat))/(c.end-c.start).Seconds())
	}
	var kindMedians, perRound []float64
	for _, ls := range byKind {
		kindMedians = append(kindMedians, median(ls))
	}
	for _, l := range roundLatency {
		perRound = append(perRound, l)
	}
	r.set("compile_s", median(perRound))
	r.set("compile_geomean_ms", geomean(kindMedians))
	r.set("throughput_ops_s", median(rates))
	r.set("latency_p50_ms", median(p50s))
	r.set("latency_p99_ms", median(p99s))
	r.set("arena_reduction_x", geomean(red))
	r.set("search_peak_bytes", median(searchPeaks))

	r.printf("loop: %d requests in %d chunks of %d in %.2f s; %d distinct networks\n",
		len(p.samples), len(p.chunks), chunkSize, p.elapsed.Seconds(), len(reductions))
	r.printf("timings over the %d least stolen chunks (%d answers); by chunk:\n", len(calm), len(all))
	for _, c := range p.chunks {
		var lat []float64
		for _, s := range p.in(c) {
			lat = append(lat, ms(s.latency))
		}
		r.printf("  chunk %3d host steal %5.1f %%  p50 %.3f p99 %.3f ms\n", c.first/chunkSize, 100*c.steal, quantile(lat, 0.5), quantile(lat, 0.99))
	}
	for k, ls := range byKind {
		r.set("serenityd.p50_ms."+kindMetric[k], median(ls))
		r.printf("latency %-12s p50 %.3f ms over %d requests\n", kindNames[k], median(ls), len(ls))
	}
	r.printf("latency p50 %.3f p90 %.3f p99 %.3f p99.9 %.3f ms\n", quantile(all, 0.5), quantile(all, 0.9), quantile(all, 0.99), quantile(all, 0.999))
}

// layers records the traced phase's per-layer metrics; untraced is the
// phase before it, whose mean latency the tracing overhead is taken from.
func (p *servePhase) layers(r *run, untraced *servePhase) {
	lt := p.tr.layers()
	if n := lt["graph.decode"]; n.Count > 0 {
		r.set("graph.decode_us", us(n.Total)/float64(n.Count))
	}
	if n := lt["graph.fingerprint"]; n.Count > 0 {
		r.set("graph.fingerprint_us", us(n.Total)/float64(n.Count))
	}
	ratio := func(hits, misses string) float64 {
		h, m := p.delta(hits), p.delta(misses)
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}
	r.set("segmemo.hit_ratio", ratio("serenityd_segment_memo_hits_total", "serenityd_segment_memo_misses_total"))
	r.set("serenityd.cache_hit_ratio", ratio("serenityd_cache_hits_total", "serenityd_cache_misses_total"))
	r.set("store.hits", p.delta("serenityd_store_hits_total")/p.rounds())
	r.set("serenityd.admission_waiting", mean(p.waiting))

	var cached, uncached, compute, tracedLat, untracedLat []float64
	for _, s := range p.ok() {
		l := ms(s.latency)
		tracedLat = append(tracedLat, l)
		if s.answer.Cached {
			// A cached answer echoes the scheduling_ms of the compile that
			// produced it; no scheduling ran for this request.
			cached = append(cached, l)
		} else {
			uncached = append(uncached, l-s.answer.SchedulingMS)
			compute = append(compute, s.answer.SchedulingMS)
		}
	}
	for _, s := range untraced.ok() {
		untracedLat = append(untracedLat, ms(s.latency))
	}
	r.set("serenityd.overhead_ms.cached", median(cached))
	r.set("serenityd.overhead_ms.uncached", median(uncached))
	r.set("serenityd.compute_ms", median(compute))
	r.set("trace.overhead_us", 1000*(mean(tracedLat)-mean(untracedLat)))
	p.counters(r)

	r.printf("traced requests: %d; per request: decode %.1f us, fingerprint %.1f us, schedule call %.1f us\n",
		len(p.samples), r.values["graph.decode_us"], r.values["graph.fingerprint_us"],
		us(lt["serenityd.schedule"].Total)/float64(max(1, lt["serenityd.schedule"].Count)))
	r.printf("cached answers: %d, overhead p50 %.3f ms; uncached: %d, overhead p50 %.3f ms, scheduling p50 %.3f ms\n",
		len(cached), median(cached), len(uncached), median(uncached), median(compute))
	if err := p.tr.write(r.tracePath()); err != nil {
		r.printf("spans not written: %v\n", err)
	}
}
