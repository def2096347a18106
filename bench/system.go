package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"firmament/bench/delayfs"
	"firmament/internal/api"
	"firmament/internal/cluster"
	"firmament/internal/core"
	"firmament/internal/policy"
	"firmament/internal/service"
	"firmament/internal/storage"
	"firmament/internal/wal"
)

// numFiles is the size of the seeded input-file pool of the Quincy
// workload. Files are added during set-up only: the store is read by the
// scheduling goroutine without a lock.
const numFiles = 512

// A door is the front door the load goes through: the in-process service
// or the HTTP API. The driver argument selects the caller's own HTTP
// connection, and span (0 when tracing is off) is the caller's span, which
// the request carries to the server side; the in-process door ignores both.
type door interface {
	submit(driver int, span uint64, class cluster.JobClass, priority int, specs []cluster.TaskSpec) (cluster.JobID, error)
	complete(span uint64, ids []cluster.TaskID) error
	machineOp(id cluster.MachineID, restore bool) error
	watch() (<-chan service.Placement, func(), error)
}

type localDoor struct{ svc *service.Service }

func (d localDoor) submit(_ int, _ uint64, class cluster.JobClass, priority int, specs []cluster.TaskSpec) (cluster.JobID, error) {
	job, err := d.svc.Submit(class, priority, specs)
	if err != nil {
		return 0, err
	}
	return job.ID, nil
}

func (d localDoor) complete(_ uint64, ids []cluster.TaskID) error {
	for _, id := range ids {
		if err := d.svc.Complete(id); err != nil {
			return err
		}
	}
	return nil
}

func (d localDoor) machineOp(id cluster.MachineID, restore bool) error {
	if restore {
		return d.svc.RestoreMachine(id)
	}
	return d.svc.RemoveMachine(id)
}

func (d localDoor) watch() (<-chan service.Placement, func(), error) {
	ch, cancel := d.svc.Watch()
	return ch, cancel, nil
}

// httpDoor gives every driver, the completer and the watcher an api.Client
// over its own transport, so each holds exactly one connection.
type httpDoor struct {
	drivers   []*spanClient
	completer *spanClient
	watcher   *spanClient
}

// spanClient is an api.Client whose requests carry the caller's current
// span ID, so the server-side handler span can name its parent. Each is
// used by one goroutine at a time.
type spanClient struct {
	*api.Client
	tp   *http.Transport
	span atomic.Uint64
}

const spanHeader = "X-Bench-Span"

type spanTransport struct {
	base http.RoundTripper
	c    *spanClient
}

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := t.c.span.Load(); id != 0 {
		r.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	return t.base.RoundTrip(r)
}

func newSpanClient(base string) *spanClient {
	c := &spanClient{tp: &http.Transport{}}
	c.Client = api.NewClient(base, &http.Client{Transport: spanTransport{base: c.tp, c: c}})
	return c
}

func (d *httpDoor) submit(driver int, span uint64, class cluster.JobClass, priority int, specs []cluster.TaskSpec) (cluster.JobID, error) {
	c := d.drivers[driver]
	c.span.Store(span)
	job, err := c.Submit(class, priority, specs)
	if err != nil {
		return 0, err
	}
	return job.ID, nil
}

func (d *httpDoor) complete(span uint64, ids []cluster.TaskID) error {
	d.completer.span.Store(span)
	return d.completer.CompleteBatch(ids)
}

func (d *httpDoor) machineOp(id cluster.MachineID, restore bool) error {
	if restore {
		return d.completer.RestoreMachine(id)
	}
	return d.completer.RemoveMachine(id)
}

func (d *httpDoor) watch() (<-chan service.Placement, func(), error) {
	ws, err := d.watcher.Watch(context.Background())
	if err != nil {
		return nil, nil, err
	}
	return ws.C, ws.Cancel, nil
}

// A system is one built workload: the service, its cluster, the door the
// load uses, and — on the production path — the disk and the listener.
type system struct {
	sp    *spec
	svc   *service.Service
	door  door
	files []inputFile

	prefilled int // tasks placed during set-up that never finish

	fs     *delayfs.FS
	walDir string
	srv    *http.Server
	srvErr chan error
}

func (sp *spec) model(files []inputFile) func(*cluster.Cluster) policy.CostModel {
	return func(cl *cluster.Cluster) policy.CostModel {
		if !sp.quincy {
			return policy.NewLoadSpread(cl)
		}
		store := storage.NewStore(cl, storage.Config{Seed: 1})
		for _, f := range files {
			if id := store.AddFile(f.size); id != f.id {
				panic(fmt.Sprintf("bench: block store assigned file id %d, schedule expects %d", id, f.id))
			}
		}
		return policy.NewQuincy(cl, store)
	}
}

// build sets a workload up to the point where the first measured op could
// be issued: cluster, policy, service (with journal and listener on the
// production path), watch-ready door, and the prefill placed. tr may be
// nil; when set, the HTTP handler and the disk report spans to it.
func build(sp *spec, drivers int, tmp string, tr *tracer) (*system, error) {
	sys := &system{sp: sp}
	if sp.quincy {
		sys.files = storeFiles(numFiles)
	}
	model := sp.model(sys.files)
	if !sp.production {
		cl := cluster.New(sp.topo)
		sys.svc = service.New(cl, model(cl), core.DefaultConfig(), sp.svc)
		sys.door = localDoor{sys.svc}
	} else {
		dir, err := os.MkdirTemp(tmp, "wal-")
		if err != nil {
			return nil, err
		}
		sys.walDir = dir
		sys.fs = delayfs.New(delayfs.DefaultSyncDelay)
		if tr != nil {
			sys.fs.Hook = tr.diskHook
		}
		svc, _, err := service.Open(sys.options(dir, sys.fs, model))
		if err != nil {
			return nil, fmt.Errorf("open journal: %w", err)
		}
		sys.svc = svc
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			svc.Close()
			return nil, err
		}
		var h http.Handler = api.NewServer(svc)
		if tr != nil {
			h = tr.middleware(h)
		}
		sys.srv = &http.Server{Handler: h}
		sys.srvErr = make(chan error, 1)
		go func() { sys.srvErr <- sys.srv.Serve(ln) }()
		base := "http://" + ln.Addr().String()
		hd := &httpDoor{completer: newSpanClient(base), watcher: newSpanClient(base)}
		for i := 0; i < drivers; i++ {
			hd.drivers = append(hd.drivers, newSpanClient(base))
		}
		sys.door = hd
	}
	err := sys.prefill()
	if err == nil {
		err = sys.ready()
	}
	if err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// ready ends set-up by proving the system schedules: one single-task job
// goes in through the door and must come back placed on a watch stream.
// It makes set-up time a property of the program rather than of a few
// allocations — the first round builds the graph and sizes the solvers'
// scratch, the first request opens the connections — so work a later
// change moves out of the steady state and into start-up shows here.
func (sys *system) ready() error {
	events, cancel, err := sys.door.watch()
	if err != nil {
		return fmt.Errorf("readiness probe: watch: %w", err)
	}
	defer cancel()
	job, err := sys.door.submit(0, 0, cluster.Batch, 0, []cluster.TaskSpec{{InputFile: -1}})
	if err != nil {
		return fmt.Errorf("readiness probe: submit: %w", err)
	}
	timeout := time.After(30 * time.Second)
	for {
		select {
		case p, ok := <-events:
			if !ok {
				return errors.New("readiness probe: watch stream ended")
			}
			if p.Job == job && p.Kind == core.DecisionPlaced {
				sys.prefilled++
				return sys.door.complete(0, []cluster.TaskID{p.Task})
			}
		case <-timeout:
			return errors.New("readiness probe: job not placed within 30s")
		}
	}
}

// options are the service.Open options of the production path; the crash
// image is reopened with the same ones over a different directory.
func (sys *system) options(dir string, fs wal.FS, model func(*cluster.Cluster) policy.CostModel) service.Options {
	return service.Options{
		Topology:   sys.sp.topo,
		Model:      model,
		Scheduler:  core.DefaultConfig(),
		Service:    sys.sp.svc,
		Durability: service.DurabilityConfig{Dir: dir, Sync: wal.SyncBatch, FS: fs},
	}
}

// prefill occupies sp.prefill of the slots with tasks that never finish
// and waits for the scheduler to place them all.
func (sys *system) prefill() error {
	specs := prefillSpecs(sys.sp, sys.files)
	if len(specs) == 0 {
		return nil
	}
	if _, err := sys.svc.Submit(cluster.Batch, 0, specs); err != nil {
		return fmt.Errorf("prefill: %w", err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for sys.svc.Cluster().NumRunning() < len(specs) {
		if time.Now().After(deadline) {
			return fmt.Errorf("prefill: %d of %d tasks placed after 60s", sys.svc.Cluster().NumRunning(), len(specs))
		}
		time.Sleep(time.Millisecond)
	}
	sys.prefilled = len(specs)
	return nil
}

// close stops the listener and the service and removes the journal.
func (sys *system) close() error {
	var errs []error
	if sys.srv != nil {
		// Close, not Shutdown: the watch stream is a connection that never
		// goes idle.
		sys.srv.Close()
		if err := <-sys.srvErr; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		hd := sys.door.(*httpDoor)
		for _, c := range append(hd.drivers, hd.completer, hd.watcher) {
			c.tp.CloseIdleConnections()
		}
	}
	if err := sys.svc.Close(); err != nil {
		errs = append(errs, err)
	}
	if sys.walDir != "" {
		errs = append(errs, os.RemoveAll(sys.walDir))
	}
	return errors.Join(errs...)
}

// copyDir copies the regular files of src into a new directory under tmp:
// with the service idle and every acknowledged record flushed to the OS,
// that is the image a crash at this instant would leave.
func copyDir(src, tmp string) (string, error) {
	dst, err := os.MkdirTemp(tmp, "crash-")
	if err != nil {
		return "", err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return "", err
		}
	}
	return dst, nil
}
