package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"deepcat/internal/obs"
	"deepcat/internal/service"
	"deepcat/internal/service/client"
	"deepcat/internal/sparksim"
	"deepcat/internal/spine"
	"deepcat/internal/warehouse"
)

// restarts is the number of graceful restarts at the end of every episode;
// a restart is quick, and several per episode steady the median.
const restarts = 5

// families are cycled across a workload's sessions so that several
// workload families, and with a spine several lanes, are live at once.
var families = []string{"WC", "TS", "PR", "KM"}

// workload fixes the daemon's wiring and the shape of one episode.
//
// One closed-loop client drives each workload. The machine the benchmark
// was written on has two cores, and a second client filled both: the
// daemon's background work (collector, learner pool) then queued behind
// the clients, and latency tails measured that queueing, which swung with
// the machine's other tenants, instead of the daemon.
type workload struct {
	name      string
	why       string
	spine     bool
	warehouse bool
	// memStore keeps checkpoints in a service.MemStore instead of an
	// FSStore; see the churn workload.
	memStore bool
	// churn switches from long-lived sessions to create, a few rounds,
	// delete.
	churn bool
	// sessions is the number of sessions live at once.
	sessions int
	// rounds is the suggest+observe rounds per session in one episode.
	rounds int
	// lifetimes is the number of sessions churn creates per episode.
	lifetimes int
	// offlineIters is the create request's offline_iters for long-lived
	// sessions and for the sessions that seed churn's warehouse.
	offlineIters int
}

var workloads = []workload{
	{
		name:         "inline",
		why:          "inline TD3 fine-tuning is about 85% of each round, so batched training moves it and checkpoint or HTTP work barely does",
		sessions:     8,
		rounds:       16,
		offlineIters: 32,
	},
	{
		name:      "churn",
		why:       "short warm-started sessions with spine and warehouse: creates, warm starts, checkpoint encode, deletes and appends",
		spine:     true,
		warehouse: true,
		// Checkpoints stay in memory: on the shared disk the benchmark was
		// written on, fsync latency swung churn's throughput 2.5 times
		// across ten runs. FSStore is measured by inline.
		memStore:     true,
		churn:        true,
		sessions:     2,
		rounds:       4,
		lifetimes:    240,
		offlineIters: 64,
	},
}

// episode is one set-up, rounds phase and restart of a fresh daemon.
type episode struct {
	spineAttached bool

	setup          time.Duration
	wall           time.Duration // rounds phase, first round to last
	resumes        []time.Duration
	checkpointAlls []time.Duration

	rounds, suggests, observes, creates, deletes, gets ops
	// seeding are the creates and deletes of the sessions that seed
	// churn's warehouse in set-up.
	seeding  ops
	warm     int
	speedups []float64
	simMs    []float64

	before, after obs.Snapshot
	spineStats    spine.Stats
	spineAge      time.Duration
	whStats       warehouse.Stats
	allocBytes    float64
	// peakMem and avgMem are the most and the time-averaged memory the Go
	// runtime held from the operating system during the episode, in
	// bytes.
	peakMem    float64
	avgMem     float64
	gcCPU, cpu float64
	spans      []span

	problems
}

// problems are failed correctness checks.
type problems []error

// check records a failed check when ok is false.
func (p *problems) check(ok bool, format string, args ...any) {
	if !ok {
		*p = append(*p, fmt.Errorf(format, args...))
	}
}

// sess is the benchmark's view of one tuning session.
type sess struct {
	id    string
	w     sparksim.Workload
	sim   *sparksim.Simulator
	seed  int64
	names map[string]bool
	dim   int
	def   float64
	step  int
	best  float64
	done  int // rounds completed in this session's lifetime
}

func newSess(id string, family string, seed int64) (*sess, error) {
	w, err := sparksim.WorkloadByShort(family)
	if err != nil {
		return nil, err
	}
	sim := sparksim.NewSimulator(sparksim.ClusterA(), seed)
	names := make(map[string]bool)
	for _, p := range sim.Space().Params() {
		names[p.Name] = true
	}
	return &sess{id: id, w: w, sim: sim, seed: seed, names: names, dim: sim.Space().Dim(), def: sim.DefaultTime(w, 0)}, nil
}

func (s *sess) createRequest(offlineIters int) service.CreateSessionRequest {
	return service.CreateSessionRequest{ID: s.id, Workload: s.w.Short, Input: 1, Cluster: "a", Seed: s.seed, OfflineIters: offlineIters}
}

// sessionSeed derives a session's seed from the run's seed, the episode
// and the session's index: nonzero, because the daemon replaces a zero
// seed with 1, and below 2^53 so that it survives any JSON reader.
func sessionSeed(seed int64, episode, i int) int64 {
	var x uint64
	for _, v := range []int64{seed, int64(episode), int64(i)} {
		// one splitmix64 step per part
		x += 0x9e3779b97f4a7c15 + uint64(v)
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x>>11) | 1
}

// speedup is the session's default time over the best time it found; a
// session that found no successful configuration keeps the default.
func (s *sess) speedup() float64 {
	if s.best == 0 {
		return 1
	}
	return s.def / s.best
}

// scheduler is the closed-loop client, standing in for a job scheduler: it
// owns its sessions and its tallies.
type scheduler struct {
	cl    *client.Client
	tr    *tracer
	round int64 // id of the last operation, shared by its spans

	rounds, suggests, observes, creates, deletes, gets ops
	seeding                                            ops
	warm                                               int
	simMs, speedups                                    []float64
	problems
}

// call times one client operation and records it as a root span.
func (c *scheduler) call(op, sid string, f func() error) (time.Duration, error) {
	c.round++
	sp := c.tr.begin("client", op, sid, c.round)
	t := time.Now()
	err := f()
	d := time.Since(t)
	c.tr.end(sp, 0)
	return d, err
}

// create opens s on the daemon and checks the answer.
func (c *scheduler) create(s *sess, offlineIters int, tally *ops) {
	var info service.SessionInfo
	d, err := c.call("create", s.id, func() (err error) {
		info, err = c.cl.CreateSession(s.createRequest(offlineIters))
		return err
	})
	tally.add(d, err)
	if err != nil {
		c.check(false, "create %s: %v", s.id, err)
		return
	}
	c.check(info.ID == s.id && info.Step == 0, "create %s: answered id %s at step %d", s.id, info.ID, info.Step)
	c.check(info.DefaultTime == s.def, "create %s: default time %g, simulator says %g", s.id, info.DefaultTime, s.def)
	if info.WarmStarted {
		c.warm++
	}
}

// remove deletes s on the daemon.
func (c *scheduler) remove(s *sess, tally *ops) {
	d, err := c.call("delete", s.id, func() error { return c.cl.DeleteSession(s.id) })
	tally.add(d, err)
	c.check(err == nil, "delete %s: %v", s.id, err)
}

// roundTrip runs one suggest, evaluates the action on the session's
// simulated cluster, and reports the outcome.
func (c *scheduler) roundTrip(s *sess) {
	var sug service.SuggestResponse
	ds, err := c.call("suggest", s.id, func() (err error) {
		sug, err = c.cl.Suggest(s.id)
		return err
	})
	c.suggests.add(ds, err)
	if err != nil {
		c.rounds.add(0, err)
		c.check(false, "suggest %s: %v", s.id, err)
		return
	}
	c.check(sug.Step == s.step+1, "suggest %s: step %d, want %d", s.id, sug.Step, s.step+1)
	c.check(validAction(sug, s) == nil, "suggest %s step %d: %v", s.id, sug.Step, validAction(sug, s))

	t := time.Now()
	res := s.sim.Evaluate(s.w, 0, sug.Action)
	c.simMs = append(c.simMs, ms(time.Since(t)))

	var ack service.ObserveResponse
	req := service.ObserveRequest{Step: sug.Step, ExecTime: res.ExecTime, Failed: res.Failed, State: res.LoadAvg}
	do, err := c.call("observe", s.id, func() (err error) {
		ack, err = c.cl.Observe(s.id, req)
		return err
	})
	c.observes.add(do, err)
	if err != nil {
		c.rounds.add(0, err)
		c.check(false, "observe %s step %d: %v", s.id, sug.Step, err)
		return
	}
	c.rounds.add(ds+do, nil)
	c.check(ack.Step == sug.Step, "observe %s: acknowledged step %d, answered step %d", s.id, ack.Step, sug.Step)
	s.step = ack.Step
	s.done++
	if !res.Failed && !ack.Quarantined && (s.best == 0 || res.ExecTime < s.best) {
		s.best = res.ExecTime
	}
	c.check(ack.BestTime == s.best, "observe %s step %d: best time %g, client saw %g", s.id, ack.Step, ack.BestTime, s.best)
}

// validAction checks a suggestion: d finite coordinates in [0,1] and a
// config of the d named parameters.
func validAction(sug service.SuggestResponse, s *sess) error {
	if len(sug.Action) != s.dim {
		return fmt.Errorf("action has %d coordinates, want %d", len(sug.Action), s.dim)
	}
	for i, x := range sug.Action {
		if math.IsNaN(x) || x < 0 || x > 1 {
			return fmt.Errorf("action[%d] = %g outside [0,1]", i, x)
		}
	}
	if len(sug.Config) != s.dim {
		return fmt.Errorf("config has %d parameters, want %d", len(sug.Config), s.dim)
	}
	for name, v := range sug.Config {
		if !s.names[name] || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("config parameter %q = %g", name, v)
		}
	}
	return nil
}

// runEpisode sets up a fresh daemon under dir, drives it, restarts it and
// checks everything it can.
func runEpisode(dir string, wl workload, seed int64, idx int, traced bool) (*episode, error) {
	ep := &episode{}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	transport := http.DefaultTransport.(*http.Transport).Clone()
	defer transport.CloseIdleConnections()
	newClient := func(url string) *client.Client {
		cl := client.New(url)
		cl.HTTPClient = &http.Client{Timeout: 30 * time.Second, Transport: transport}
		// No retries: every failed attempt is counted, never hidden.
		cl.Retry = client.RetryPolicy{}
		return cl
	}
	mkSess := func(n int) (*sess, error) {
		return newSess(fmt.Sprintf("e%d-s%d", idx, n), families[n%len(families)], sessionSeed(seed, idx, n))
	}

	// Each episode stands for a fresh daemon process, which starts without
	// the previous episode's garbage.
	runtime.GC()
	mem := startMemSampler()
	defer func() { ep.peakMem = mem.finish(); ep.avgMem = mem.sum / float64(mem.n) }()
	start := time.Now()
	phase := tr.beginPhase("setup")
	d, err := startDaemon(dir, wl, tr)
	if err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	defer d.close()
	ep.spineAttached = d.m.Spine() != nil
	c := &scheduler{cl: newClient(d.url), tr: tr}
	var live []*sess
	if wl.churn {
		if err := seedWarehouse(d, c, wl, idx, seed); err != nil {
			return nil, err
		}
	} else {
		for n := 0; n < wl.sessions; n++ {
			s, err := mkSess(n)
			if err != nil {
				return nil, err
			}
			c.create(s, wl.offlineIters, &c.creates)
			live = append(live, s)
		}
	}
	ep.setup = time.Since(start)
	tr.endPhase(phase)

	ep.before = d.m.MetricsSnapshot()
	rt0 := readRuntime()
	phase = tr.beginPhase("rounds")
	t0 := time.Now()
	if wl.churn {
		live = churn(c, wl, mkSess)
	} else {
		for r := 0; r < wl.rounds; r++ {
			for _, s := range live {
				c.roundTrip(s)
			}
		}
	}
	ep.wall = time.Since(t0)
	tr.endPhase(phase)
	rt1 := readRuntime()
	ep.allocBytes = rt1.alloc - rt0.alloc
	ep.gcCPU, ep.cpu = rt1.gcCPU-rt0.gcCPU, rt1.cpu-rt0.cpu
	ep.after = d.m.MetricsSnapshot()
	if d.spn != nil {
		ep.spineStats = d.spn.Stats()
		ep.spineAge = time.Since(d.spnFrom)
	}
	if d.wh != nil {
		ep.whStats = d.wh.Stats()
	}

	for _, s := range live {
		c.speedups = append(c.speedups, s.speedup())
	}
	for i := 0; i < restarts; i++ {
		ep.restart(d, live, newClient, c)
	}

	if wl.churn {
		c.cl = newClient(d.url)
		for _, s := range live {
			c.remove(s, &c.deletes)
		}
		ids, err := d.base.List()
		ep.check(err == nil && len(ids) == 0, "churn left %d checkpoints behind (%v)", len(ids), err)
		ep.check(c.creates.attempted() == c.deletes.attempted(),
			"churn created %d sessions and deleted %d", c.creates.attempted(), c.deletes.attempted())
	}
	ep.rounds, ep.suggests, ep.observes = c.rounds, c.suggests, c.observes
	ep.creates, ep.deletes, ep.gets, ep.seeding = c.creates, c.deletes, c.gets, c.seeding
	ep.warm, ep.simMs, ep.speedups = c.warm, c.simMs, c.speedups
	ep.problems = append(ep.problems, c.problems...)
	ep.spans = tr.take()
	return ep, nil
}

// churn runs short-lived sessions: each of wl.sessions slots creates a
// session, drives it for wl.rounds rounds and deletes it, until
// wl.lifetimes sessions were created. The last session of every slot stays
// live for the restart and is returned.
func churn(c *scheduler, wl workload, mk func(n int) (*sess, error)) []*sess {
	slots := make([]*sess, wl.sessions)
	created := 0
	for {
		busy := false
		for i := range slots {
			if slots[i] == nil && created < wl.lifetimes {
				s, err := mk(created)
				if err != nil {
					c.check(false, "session %d: %v", created, err)
					return nil
				}
				created++
				c.create(s, 0, &c.creates)
				slots[i] = s
			}
			s := slots[i]
			if s == nil || s.done == wl.rounds {
				continue
			}
			busy = true
			c.roundTrip(s)
			if s.done == wl.rounds && created < wl.lifetimes {
				c.speedups = append(c.speedups, s.speedup())
				c.remove(s, &c.deletes)
				slots[i] = nil
			}
		}
		if !busy {
			return slots
		}
	}
}

// seedWarehouse gives every family experience and a donor, so that every
// churn create warm-starts: one session per family pretrains offline (its
// experience lands in the warehouse) and is deleted, then each family's
// donor is trained.
func seedWarehouse(d *daemon, c *scheduler, wl workload, idx int, seed int64) error {
	var sigs []string
	for i, fam := range families {
		s, err := newSess(fmt.Sprintf("e%d-seed-%s", idx, fam), fam, sessionSeed(seed, idx, -1-i))
		if err != nil {
			return err
		}
		c.create(s, wl.offlineIters, &c.seeding)
		c.remove(s, &c.seeding)
		sigs = append(sigs, warehouse.Signature("a", fam, 1))
	}
	errs := make([]error, len(sigs))
	var wg sync.WaitGroup
	for k := 0; k < whWorkers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(sigs); i += whWorkers {
				_, errs[i] = d.wh.TrainFamily(sigs[i])
			}
		}(k)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("train donors: %w", err)
	}
	return nil
}

// restart is a graceful daemon restart: stop serving, checkpoint every
// session, build a new manager that resumes them, serve again, and read
// every session back. Each session's step, replay size and best time must
// survive unchanged, and every stored checkpoint must verify.
func (ep *episode) restart(d *daemon, live []*sess, newClient func(string) *client.Client, c *scheduler) {
	cl := newClient(d.url)
	pre := make(map[string]service.SessionInfo, len(live))
	for _, s := range live {
		info, err := cl.Session(s.id)
		if err != nil {
			ep.check(false, "read %s before restart: %v", s.id, err)
			return
		}
		pre[s.id] = info
		ep.check(info.Step == s.step, "session %s at step %d after %d acknowledged rounds", s.id, info.Step, s.step)
		ep.check(info.BestTime == s.best, "session %s best time %g, client saw %g", s.id, info.BestTime, s.best)
	}

	phase := d.tr.beginPhase("restart")
	d.stopServer()
	t := time.Now()
	if err := d.m.CheckpointAll(); err != nil {
		ep.check(false, "checkpoint all: %v", err)
	}
	ep.checkpointAlls = append(ep.checkpointAlls, time.Since(t))
	// Resume is timed from here: every observation already wrote its
	// checkpoint through, so what a restarted daemon pays is loading
	// them. The graceful CheckpointAll before it is timed on its own.
	t = time.Now()
	n, err := d.newManager()
	ep.check(err == nil && n == len(live), "resumed %d of %d sessions: %v", n, len(live), err)
	if err := d.serve(); err != nil {
		ep.check(false, "serve after restart: %v", err)
		d.tr.endPhase(phase)
		return
	}
	cl = newClient(d.url)
	post := make(map[string]service.SessionInfo, len(live))
	for _, s := range live {
		var info service.SessionInfo
		dur, err := c.call("get", s.id, func() (err error) {
			info, err = cl.Session(s.id)
			return err
		})
		c.gets.add(dur, err)
		post[s.id] = info
		ep.check(err == nil, "read %s after restart: %v", s.id, err)
	}
	ep.resumes = append(ep.resumes, time.Since(t))
	d.tr.endPhase(phase)

	for _, s := range live {
		a, b := pre[s.id], post[s.id]
		ep.check(a.Step == b.Step && a.ReplayLen == b.ReplayLen && a.BestTime == b.BestTime,
			"session %s changed across restart: step %d->%d, replay %d->%d, best %g->%g",
			s.id, a.Step, b.Step, a.ReplayLen, b.ReplayLen, a.BestTime, b.BestTime)
	}
	ids, err := d.base.List()
	ep.check(err == nil, "list checkpoints: %v", err)
	sort.Strings(ids)
	for _, id := range ids {
		data, err := d.base.Load(id)
		if err == nil {
			err = service.VerifyCheckpoint(data)
		}
		ep.check(err == nil, "checkpoint %s: %v", id, err)
	}
	ep.check(len(ids) == len(live), "%d checkpoints stored for %d live sessions", len(ids), len(live))
}

// memSampler tracks the peak of the memory the Go runtime holds from the
// operating system (mapped minus returned), which for this pure-Go process
// is its resident heap, stacks and runtime metadata.
type memSampler struct {
	stop, done chan struct{}
	peak       float64
	sum        float64
	n          int
}

// memEvery is the sampling period; it is short against an allocation burst
// of a round (a few megabytes in tens of milliseconds).
const memEvery = 10 * time.Millisecond

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	read := func() {
		metrics.Read(s)
		v := float64(s[0].Value.Uint64()) - float64(s[1].Value.Uint64())
		m.peak = max(m.peak, v)
		m.sum += v
		m.n++
	}
	go func() {
		defer close(m.done)
		t := time.NewTicker(memEvery)
		defer t.Stop()
		for {
			read()
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// finish stops the sampler and returns the peak it saw.
func (m *memSampler) finish() float64 {
	close(m.stop)
	<-m.done
	return m.peak
}

// runtimeTotals are the Go runtime's cumulative allocation and CPU counters.
type runtimeTotals struct{ alloc, gcCPU, cpu float64 }

func readRuntime() runtimeTotals {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return math.NaN()
	}
	return runtimeTotals{alloc: v(0), gcCPU: v(1), cpu: v(2)}
}
