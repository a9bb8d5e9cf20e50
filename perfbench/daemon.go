package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"deepcat/internal/obs"
	"deepcat/internal/service"
	"deepcat/internal/spine"
	"deepcat/internal/warehouse"
)

// Daemon settings: the deepcat-serve flag defaults, except where a note
// says otherwise.
const (
	maxSessions   = 64
	traceRing     = 512
	spineInterval = 2 * time.Second
	spineIters    = 4
	spineWorkers  = 2
	whInterval    = time.Minute
	// whTrainIters is below deepcat-serve's 500 so that training four
	// donors fits in a set-up that repeats several times per run.
	whTrainIters = 100
	whWorkers    = 2
)

// daemon is one in-process tuning daemon wired the way cmd/deepcat-serve
// wires it, listening on a loopback port.
type daemon struct {
	reg *obs.Registry
	// base holds the checkpoints; store is what the manager writes
	// through: base itself, or base inside a timing wrapper in traced
	// episodes.
	base, store service.Store
	m           *service.Manager
	spn         *spine.Spine
	spnFrom     time.Time
	wh          *warehouse.Warehouse
	tr          *tracer

	srv    *http.Server
	served chan struct{} // closed when the server goroutine has returned
	url    string
}

// startDaemon builds the daemon's components under dir and starts serving.
func startDaemon(dir string, wl workload, tr *tracer) (*daemon, error) {
	d := &daemon{reg: obs.NewRegistry(), tr: tr}
	if wl.memStore {
		d.base = service.NewMemStore()
	} else {
		fs, err := service.NewFSStore(filepath.Join(dir, "ckpt"))
		if err != nil {
			return nil, err
		}
		d.base = fs
	}
	d.store = d.base
	if tr != nil {
		d.store = timedStore{Store: d.base, tr: tr}
	}
	if wl.warehouse {
		var err error
		d.wh, err = warehouse.Open(warehouse.Options{
			Dir:           filepath.Join(dir, "warehouse"),
			TrainInterval: whInterval,
			TrainIters:    whTrainIters,
			TrainWorkers:  whWorkers,
			Registry:      d.reg,
		})
		if err != nil {
			return nil, err
		}
	}
	if wl.spine {
		d.spn = spine.New(spine.Options{
			LearnInterval: spineInterval,
			LearnIters:    spineIters,
			Workers:       spineWorkers,
			Registry:      d.reg,
		})
		d.spnFrom = time.Now()
		service.WarmSpineFromWarehouse(d.spn, d.wh)
	}
	if _, err := d.newManager(); err != nil {
		d.close()
		return nil, err
	}
	if err := d.serve(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// newManager replaces the manager with a fresh one over the same store and
// resumes every checkpoint in it, returning how many it resumed.
func (d *daemon) newManager() (int, error) {
	m := service.NewManager(d.store, maxSessions)
	m.AttachObs(d.reg, nil)
	m.SetResilience(service.DefaultResilience())
	m.AttachTrace(service.TraceConfig{RingSize: traceRing})
	if d.wh != nil {
		m.AttachWarehouse(d.wh)
	}
	if d.spn != nil {
		m.AttachSpine(service.SpineConfig{Spine: d.spn, AdoptEvery: service.DefaultSpineAdoptEvery})
	}
	d.m = m
	return m.Resume()
}

// serve starts an HTTP server for the current manager on a new loopback
// port.
func (d *daemon) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	var h http.Handler = service.NewServer(d.m)
	if d.tr != nil {
		h = timedHandler{h: h, tr: d.tr}
	}
	d.srv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	d.url = "http://" + ln.Addr().String()
	d.served = make(chan struct{})
	go func(srv *http.Server, done chan<- struct{}) {
		defer close(done)
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logf("daemon: serve: %v", err)
		}
	}(d.srv, d.served)
	return nil
}

// stopServer drains the HTTP server; the manager and its sessions stay.
func (d *daemon) stopServer() {
	if d.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		logf("daemon: shutdown: %v", err)
	}
	<-d.served
	d.srv = nil
}

// close stops everything the daemon started and waits for it.
func (d *daemon) close() {
	d.stopServer()
	if d.spn != nil {
		d.spn.Close()
	}
	if d.wh != nil {
		if err := d.wh.Close(); err != nil {
			logf("daemon: warehouse close: %v", err)
		}
	}
}
