package service_test

import (
	"context"
	"errors"
	"math"
	"net"
	"net/http"
	"testing"
	"time"

	"deepcat/internal/chaos"
	"deepcat/internal/cli"
	"deepcat/internal/env"
	"deepcat/internal/fleet"
	"deepcat/internal/service"
	"deepcat/internal/service/client"
)

// fleetNode is one in-process shard: its own Manager and Router over the
// shared checkpoint directory, served on a real TCP listener so redirects
// and cross-node proxying go through genuine HTTP.
type fleetNode struct {
	url     string
	hs      *http.Server
	manager *service.Manager
	router  *fleet.Router
	client  *client.Client
}

type testFleet struct {
	t     *testing.T
	dir   string
	nodes []*fleetNode
}

// newTestFleet starts n shards over one shared checkpoint directory —
// the deployment model of a real fleet, where -data points every process
// at the same store. Listeners are opened first so every router knows the
// full membership before any server accepts a request.
func newTestFleet(t *testing.T, n int, proxy bool) *testFleet {
	t.Helper()
	dir := t.TempDir()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = lis
		urls[i] = "http://" + lis.Addr().String()
	}
	tf := &testFleet{t: t, dir: dir}
	for i, lis := range listeners {
		store, err := service.NewFSStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		m := service.NewManager(store, 0)
		router, err := fleet.NewRouter(fleet.Config{
			Self:          urls[i],
			Peers:         urls,
			ProbeInterval: -1, // readiness driven by the test, not a prober
		})
		if err != nil {
			t.Fatal(err)
		}
		m.SetOwned(router.Owns)
		hs := &http.Server{Handler: service.NewFleetServer(m, service.FleetOptions{Router: router, Proxy: proxy})}
		go hs.Serve(lis)
		c := client.New(urls[i])
		c.Retry = client.RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
		tf.nodes = append(tf.nodes, &fleetNode{url: urls[i], hs: hs, manager: m, router: router, client: c})
	}
	t.Cleanup(func() {
		for _, n := range tf.nodes {
			n.hs.Close()
		}
	})
	return tf
}

// owner returns the node the (undisturbed) ring maps id to.
func (tf *testFleet) owner(id string) *fleetNode {
	url := tf.nodes[0].router.Ring().Owner(id)
	for _, n := range tf.nodes {
		if n.url == url {
			return n
		}
	}
	tf.t.Fatalf("owner %s of %s is not a fleet node", url, id)
	return nil
}

// kill simulates kill -9 of a shard: its listener and connections close with
// no checkpoint flush, and the survivors mark it down as their probers
// would. Nothing the dead manager held in memory survives.
func (tf *testFleet) kill(victim *fleetNode) {
	tf.t.Helper()
	if err := victim.hs.Close(); err != nil {
		tf.t.Fatal(err)
	}
	for _, n := range tf.nodes {
		if n != victim {
			n.router.SetReady(victim.url, false)
		}
	}
}

func TestFleetCreateAssignsSelfOwnedID(t *testing.T) {
	tf := newTestFleet(t, 3, false)
	for i, n := range tf.nodes {
		info, err := n.client.CreateSession(service.CreateSessionRequest{
			Workload: "TS", Input: 1, Seed: int64(10 + i), NoWarmStart: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		// An anonymous create must never need a forward: the receiving shard
		// draws an id it owns and serves the session itself.
		if !n.router.Owns(info.ID) {
			t.Fatalf("node %d assigned id %s it does not own", i, info.ID)
		}
		if _, err := n.manager.Get(info.ID); err != nil {
			t.Fatalf("session %s not live on its creating node: %v", info.ID, err)
		}
	}
}

func TestFleetExplicitIDRoutesToOwner(t *testing.T) {
	for _, proxy := range []bool{false, true} {
		name := "redirect"
		if proxy {
			name = "proxy"
		}
		t.Run(name, func(t *testing.T) {
			tf := newTestFleet(t, 3, proxy)
			const id = "fleet-explicit-1"
			owner := tf.owner(id)

			// Create through a node that does NOT own the id; the request
			// must land on the owner (via 307 the client follows, or a
			// server-side proxy hop).
			var entry *fleetNode
			for _, n := range tf.nodes {
				if n != owner {
					entry = n
					break
				}
			}
			info, err := entry.client.CreateSession(service.CreateSessionRequest{
				ID: id, Workload: "WC", Input: 1, Seed: 3, NoWarmStart: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if info.ID != id {
				t.Fatalf("created id %s, want %s", info.ID, id)
			}
			if _, err := owner.manager.Get(id); err != nil {
				t.Fatalf("session not live on owner: %v", err)
			}
			if _, err := entry.manager.Get(id); !errors.Is(err, service.ErrNotFound) {
				t.Fatalf("entry node holds a copy: err=%v", err)
			}

			// Every node answers session calls for the id, wherever they land.
			for _, n := range tf.nodes {
				got, err := n.client.Session(id)
				if err != nil {
					t.Fatalf("session via %s: %v", n.url, err)
				}
				if got.ID != id {
					t.Fatalf("session via %s returned %s", n.url, got.ID)
				}
			}
			sug, err := entry.client.Suggest(id)
			if err != nil {
				t.Fatal(err)
			}
			if sug.Step != 1 {
				t.Fatalf("first suggestion step = %d", sug.Step)
			}
			if _, err := entry.client.Observe(id, service.ObserveRequest{Step: sug.Step, ExecTime: 120}); err != nil {
				t.Fatal(err)
			}
			got, err := owner.manager.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if got.Info().Step != 1 {
				t.Fatalf("owner session step = %d after routed round, want 1", got.Info().Step)
			}
		})
	}
}

func TestFleetRingAndReadyEndpoints(t *testing.T) {
	tf := newTestFleet(t, 3, false)
	for _, n := range tf.nodes {
		ready, err := n.client.Ready(context.Background())
		if err != nil || !ready.Ready || !ready.Store || !ready.Registry {
			t.Fatalf("readyz via %s = %+v, %v", n.url, ready, err)
		}
	}
	ring, err := tf.nodes[1].client.Ring(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ring.Self != tf.nodes[1].url || len(ring.Members) != 3 {
		t.Fatalf("ring = %+v", ring)
	}
	var selfs int
	for _, m := range ring.Members {
		if m.Self {
			selfs++
		}
		if !m.Ready {
			t.Fatalf("member %s not ready in a healthy fleet", m.URL)
		}
	}
	if selfs != 1 {
		t.Fatalf("%d members marked self, want 1", selfs)
	}
}

func TestFleetMigrateHandoff(t *testing.T) {
	tf := newTestFleet(t, 3, false)
	donor := tf.nodes[0]
	info, err := donor.client.CreateSession(service.CreateSessionRequest{
		Workload: "TS", Input: 1, Seed: 5, NoWarmStart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := info.ID
	for r := 0; r < 2; r++ {
		sug, err := donor.client.Suggest(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := donor.client.Observe(id, service.ObserveRequest{Step: sug.Step, ExecTime: 100 + float64(r)}); err != nil {
			t.Fatal(err)
		}
	}

	var target *fleetNode
	for _, n := range tf.nodes {
		if n != donor {
			target = n
			break
		}
	}
	resp, err := donor.client.Migrate(context.Background(), id, target.url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != id || resp.Target != target.url {
		t.Fatalf("migrate response = %+v", resp)
	}

	// The session lives on exactly one node, with its full history.
	if _, err := donor.manager.Get(id); !errors.Is(err, service.ErrNotFound) {
		t.Fatalf("donor still holds the session: err=%v", err)
	}
	s, err := target.manager.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Info(); got.Step != 2 || got.ReplayLen == 0 {
		t.Fatalf("adopted session lost history: %+v", got)
	}

	// Requests that still hit the donor follow its tombstone to the adopter,
	// and tuning continues where it stopped: not one observation lost.
	got, err := donor.client.Session(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 2 {
		t.Fatalf("post-migration step via donor = %d, want 2", got.Step)
	}
	sug, err := donor.client.Suggest(id)
	if err != nil {
		t.Fatal(err)
	}
	if sug.Step != 3 {
		t.Fatalf("post-migration suggestion step = %d, want 3", sug.Step)
	}
	if _, err := donor.client.Observe(id, service.ObserveRequest{Step: sug.Step, ExecTime: 95}); err != nil {
		t.Fatal(err)
	}

	// Migrating a session nobody holds is a clean 404, not a hang.
	if _, err := donor.client.Migrate(context.Background(), "no-such-session", target.url); err == nil {
		t.Fatal("migrating a missing session succeeded")
	}
}

// chaosDriver evaluates suggestions on a fault-injected environment the way
// an external scheduler would, reporting failed runs as wasted default time.
type chaosDriver struct {
	env     env.Environment
	defTime float64
}

func newChaosDriver(t *testing.T, workload string, seed int64) *chaosDriver {
	t.Helper()
	e, err := cli.BuildEnv("a", workload, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	ch := chaos.Wrap(e, chaos.Config{
		Seed:          seed,
		CrashRate:     0.10,
		OutlierRate:   0.10,
		OutlierFactor: 25,
	})
	return &chaosDriver{env: ch, defTime: e.DefaultTime()}
}

// round drives one suggest/observe cycle for id through c, returning the
// acknowledged step.
func (d *chaosDriver) round(t *testing.T, c *client.Client, id string) int {
	t.Helper()
	sug, err := c.Suggest(id)
	if err != nil {
		t.Fatalf("suggest %s: %v", id, err)
	}
	req := service.ObserveRequest{Step: sug.Step}
	o, err := env.EvaluateWithContext(context.Background(), d.env, sug.Action)
	if err != nil || !isFinite(o.ExecTime) {
		// Crashed or corrupted measurement: a scheduler reports the wasted
		// wall clock as a failed run (JSON cannot even carry NaN).
		req.ExecTime = d.defTime
		req.Failed = true
	} else {
		req.ExecTime = o.ExecTime
		req.State = o.State
		req.Failed = o.Failed
	}
	resp, err := c.Observe(id, req)
	if err != nil {
		t.Fatalf("observe %s step %d: %v", id, sug.Step, err)
	}
	return resp.Step
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// TestFleetKill9Failover is the fleet chaos acceptance test: a shard dies
// mid-traffic with kill -9 semantics (no flush, no goodbye) while its
// sessions tune under injected faults. Every session must resume on a
// surviving shard with at most the one in-flight (never-acknowledged)
// suggestion lost, and every durable checkpoint must verify finite.
func TestFleetKill9Failover(t *testing.T) {
	tf := newTestFleet(t, 3, false)
	const sessions = 9
	const rounds = 3
	workloads := []string{"TS", "WC", "PR"}

	ids := make([]string, sessions)
	drivers := make([]*chaosDriver, sessions)
	acked := make(map[string]int, sessions)
	for i := 0; i < sessions; i++ {
		n := tf.nodes[i%len(tf.nodes)]
		info, err := n.client.CreateSession(service.CreateSessionRequest{
			Workload: workloads[i%len(workloads)], Input: 1, Seed: int64(100 + i), NoWarmStart: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.ID
		drivers[i] = newChaosDriver(t, workloads[i%len(workloads)], int64(100+i))
	}
	for r := 0; r < rounds; r++ {
		for i, id := range ids {
			// Deliberately round-robin the entry node so most calls cross
			// shards before the kill, exercising routing under load.
			c := tf.nodes[(i+r)%len(tf.nodes)].client
			acked[id] = drivers[i].round(t, c, id)
		}
	}
	// Half the sessions have a suggestion in flight when the shard dies —
	// the one observation the handoff contract allows to be lost.
	for i, id := range ids {
		if i%2 == 0 {
			if _, err := tf.nodes[i%len(tf.nodes)].client.Suggest(id); err != nil {
				t.Fatal(err)
			}
		}
	}

	victim := tf.nodes[1]
	var victimOwned int
	for _, id := range ids {
		if tf.owner(id) == victim {
			victimOwned++
		}
	}
	if victimOwned == 0 {
		t.Fatal("no session landed on the victim shard; the kill proves nothing")
	}
	tf.kill(victim)
	survivors := []*fleetNode{tf.nodes[0], tf.nodes[2]}

	for i, id := range ids {
		c := survivors[i%len(survivors)].client
		info, err := c.Session(id)
		if err != nil {
			t.Fatalf("session %s unreachable after kill: %v", id, err)
		}
		// Write-through checkpointing makes every acknowledged observation
		// durable; only the unacknowledged pending suggestion may vanish.
		if info.Step < acked[id] || info.Step > acked[id]+1 {
			t.Fatalf("session %s resumed at step %d, acked %d (lost >1 observation)", id, info.Step, acked[id])
		}
		// The ring must have moved the victim's sessions to a live owner
		// that actually holds them now.
		newOwnerURL := survivors[0].router.Owner(id)
		if newOwnerURL == victim.url {
			t.Fatalf("session %s still routed to the dead shard", id)
		}
		var newOwner *fleetNode
		for _, n := range survivors {
			if n.url == newOwnerURL {
				newOwner = n
			}
		}
		if newOwner == nil {
			t.Fatalf("owner %s of %s is not a survivor", newOwnerURL, id)
		}
		if _, err := newOwner.manager.Get(id); err != nil {
			t.Fatalf("session %s not live on its new owner %s: %v", id, newOwnerURL, err)
		}

		// Tuning continues exactly where the acknowledged history ends.
		sug, err := c.Suggest(id)
		if err != nil {
			t.Fatalf("suggest %s after failover: %v", id, err)
		}
		if sug.Step != acked[id]+1 {
			t.Fatalf("session %s post-failover suggestion step = %d, want %d", id, sug.Step, acked[id]+1)
		}
		if step := drivers[i].round(t, c, id); step != acked[id]+1 {
			t.Fatalf("session %s post-failover round acked step %d, want %d", id, step, acked[id]+1)
		}
	}

	// Zero non-finite values durable: every checkpoint in the shared store
	// decodes and verifies, through chaos, routing and the kill.
	store, err := service.NewFSStore(tf.dir)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != sessions {
		t.Fatalf("store holds %d checkpoints, want %d", len(stored), sessions)
	}
	for _, id := range stored {
		data, err := store.Load(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := service.VerifyCheckpoint(data); err != nil {
			t.Fatalf("checkpoint %s: %v", id, err)
		}
	}
}

// BenchmarkLoadgenSuggest measures one loadgen round — suggest plus
// observe through the client and an in-process daemon — on one session that
// trains inline. The observe's TD3 fine-tuning is most of the round,
// so this tracks the inline-training cost of a round trip (see
// perfbench/LEDGER.md), not transport; the HTTP share is a small fraction.
func BenchmarkLoadgenSuggest(b *testing.B) {
	m := service.NewManager(service.NewMemStore(), 0)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	hs := &http.Server{Handler: service.NewServer(m)}
	go hs.Serve(lis)
	defer hs.Close()

	c := client.New("http://" + lis.Addr().String())
	info, err := c.CreateSession(service.CreateSessionRequest{
		Workload: "TS", Input: 1, Seed: 1, NoWarmStart: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sug, err := c.Suggest(info.ID)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Observe(info.ID, service.ObserveRequest{Step: sug.Step, ExecTime: 100}); err != nil {
			b.Fatal(err)
		}
	}
}
