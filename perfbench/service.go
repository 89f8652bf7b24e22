package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/jobs"
	"repro/sim"
)

// The served part of sweep-mixed: what cmd/simd and cmd/simc wire up, in one
// process. Two jobs.Manager handlers on loopback listeners, each with a
// 1-slot pool and its own state directory, and a cluster.Coordinator over
// both, fed a closed loop with serviceInFlight requests outstanding.
const (
	// serviceInFlight caps outstanding requests (and connections per host)
	// at nproc of the 2-core host the workload was defined on.
	serviceInFlight = 2
	// repeatMinBack and repeatMaxBack bound how far back a repeat reaches.
	repeatMinBack, repeatMaxBack = 64, 256
)

// Request classes.
const (
	classDirect  = "direct"  // a fresh scenario through POST /v1/run
	classSharded = "sharded" // a fresh 4-point sweep through Coordinator.Run
	classRepeat  = "repeat"  // an earlier direct spec again, as is or relabelled
)

// jobSize is the simulation one direct request or one sharded point runs:
// a hypercube of dimension d at ρ=0.5 over the given horizon.
type jobSize struct{ d, horizon int }

// request is one generated request.
type request struct {
	class  string
	spec   []byte
	worker int // direct and repeat: the manager that serves it
}

// serviceRequests generates the seeded request sequence.
func serviceRequests(seed uint64, n int, size jobSize) []request {
	rng := rand.New(rand.NewPCG(seed, 0x5e41ce))
	base := (seed % (1 << 20)) << 24 // seeds stay below 2^53, as jobs requires
	reqs := make([]request, n)
	var directs []int // indices of the direct requests so far
	for i := range reqs {
		u := rng.Float64()
		if u >= 0.85 {
			// A repeat picks a direct request 64 to 256 back: far enough
			// that it has finished, near enough that its result is still in
			// the 1024-entry cache. The same bytes attach to the finished
			// job; relabelled, they make a new job served from the cache.
			lo := sort.SearchInts(directs, i-repeatMaxBack)
			hi := sort.SearchInts(directs, i-repeatMinBack+1)
			if lo < hi {
				orig := reqs[directs[lo+rng.IntN(hi-lo)]]
				spec := orig.spec
				if rng.IntN(2) == 0 {
					spec = bytes.Replace(spec, []byte(`"direct-`), []byte(`"repeat-`), 1)
				}
				reqs[i] = request{class: classRepeat, worker: orig.worker, spec: spec}
				continue
			}
		}
		if u < 0.60 || u >= 0.85 {
			directs = append(directs, i)
			reqs[i] = request{class: classDirect, worker: i % 2, spec: fmt.Appendf(nil,
				`{"name": "direct-%d", "topology": {"kind": "hypercube", "d": %d}, "p": 0.5, "load_factor": 0.5, "horizon": %d, "seed": %d}`,
				i, size.d, size.horizon, base+uint64(i))}
			continue
		}
		reqs[i] = request{class: classSharded, spec: fmt.Appendf(nil,
			`{"name": "sharded-%d", "base": {"topology": {"kind": "hypercube", "d": %d}, "p": 0.5, "horizon": %d, "seed": %d}, "split_seeds": true, "axes": [{"field": "load_factor", "values": [0.3, 0.5, 0.6, 0.7]}]}`,
			i, size.d, size.horizon, base+uint64(i))}
	}
	return reqs
}

// fleet is the two running managers, their servers and the coordinator.
type fleet struct {
	mgrs  []*jobs.Manager
	srvs  []*http.Server
	urls  []string
	done  []chan error
	coord *cluster.Coordinator
	http  *http.Client
	state string

	shards, retries atomic.Int64
}

// startFleet starts both managers and the coordinator and waits until
// both /readyz answer 200.
func startFleet(state string) (*fleet, error) {
	transport := func() *http.Transport {
		return &http.Transport{MaxConnsPerHost: serviceInFlight, MaxIdleConnsPerHost: serviceInFlight}
	}
	c := &fleet{http: &http.Client{Transport: transport()}, state: state}
	for w := 0; w < 2; w++ {
		m, err := jobs.NewManager(jobs.Config{
			StateDir: filepath.Join(state, fmt.Sprintf("worker-%d", w)),
			Pool:     engine.NewPool(1),
		})
		if err != nil {
			c.stop()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			m.Drain(context.Background())
			c.stop()
			return nil, err
		}
		srv := &http.Server{Handler: m.Handler()}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		c.mgrs = append(c.mgrs, m)
		c.srvs = append(c.srvs, srv)
		c.done = append(c.done, done)
		c.urls = append(c.urls, "http://"+ln.Addr().String())
	}
	coord, err := cluster.New(cluster.Config{
		Workers:    append([]string(nil), c.urls...),
		HTTPClient: &http.Client{Transport: transport()},
		Logf: func(format string, _ ...any) {
			switch {
			case strings.Contains(format, "dispatching"):
				c.shards.Add(1)
			case strings.Contains(format, "retrying"):
				c.retries.Add(1)
			}
		},
	})
	if err != nil {
		c.stop()
		return nil, err
	}
	c.coord = coord
	deadline := time.Now().Add(10 * time.Second)
	for _, u := range c.urls {
		for !c.ready(u) {
			if time.Now().After(deadline) {
				c.stop()
				return nil, fmt.Errorf("%s never became ready", u)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return c, nil
}

// ready reports whether the manager at u answers /readyz with 200.
func (c *fleet) ready(u string) bool {
	resp, err := c.http.Get(u + "/readyz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop drains the managers, shuts the servers down and waits for them.
func (c *fleet) stop() {
	for _, m := range c.mgrs {
		m.Drain(context.Background())
	}
	for i, srv := range c.srvs {
		srv.Shutdown(context.Background())
		<-c.done[i]
	}
	c.http.CloseIdleConnections()
}

// fleetCounters are the fleet's cumulative counts: both managers' result
// cache hits and misses, and the coordinator's shard dispatches and retries.
type fleetCounters struct{ hits, misses, shards, retries int64 }

func (c *fleet) counters() fleetCounters {
	n := fleetCounters{shards: c.shards.Load(), retries: c.retries.Load()}
	for _, m := range c.mgrs {
		h, mi, _ := m.CacheStats()
		n.hits += h
		n.misses += mi
	}
	return n
}

// setServiceLayers records the jobs.* and cluster.* metrics of a traced
// pass that ran outs on a fleet whose counters moved from before to after.
func setServiceLayers(rep *report, lt layerTimes, outs []outcome, before, after fleetCounters, stateBytes int64) {
	for name, span := range map[string]string{
		"jobs.submit_ms": "jobs.submit", "jobs.first_row_ms": "jobs.first_row",
		"jobs.stream_ms": "jobs.stream", "cluster.run_ms": "cluster.run",
	} {
		rep.set(name, "ms", median(lt.durMS[span]))
	}
	rejected := 0
	for _, o := range outs {
		if o.rejected {
			rejected++
		}
	}
	rep.set("jobs.cache_hits", "count", float64(after.hits-before.hits))
	rep.set("jobs.cache_misses", "count", float64(after.misses-before.misses))
	rep.set("jobs.rejected", "count", float64(rejected))
	rep.set("jobs.state_bytes", "bytes", float64(stateBytes))
	rep.set("cluster.shards", "count", float64(after.shards-before.shards))
	rep.set("cluster.retries", "count", float64(after.retries-before.retries))
}

// outcome is what one request saw.
type outcome struct {
	class    string
	body     []byte
	latency  time.Duration // send to last row
	rejected bool
	err      error
}

// do sends one request and reads its whole row stream. Spans are recorded
// under request id req+1.
func (c *fleet) do(tr *tracer, req int, r request) outcome {
	root := tr.begin("service.request", 0, req+1)
	defer tr.end(root, r.class)
	if r.class == classSharded {
		_, sw, err := harness.LoadSpecData("sharded request", r.spec)
		if err != nil {
			return outcome{err: err}
		}
		var buf bytes.Buffer
		id := tr.begin("cluster.run", root, req+1)
		err = c.coord.Run(context.Background(), *sw, sim.NewJSONLSink(&buf))
		tr.end(id, "")
		return outcome{body: buf.Bytes(), err: err}
	}
	id := tr.begin("jobs.submit", root, req+1)
	resp, err := c.http.Post(c.urls[r.worker]+"/v1/run", "application/json", bytes.NewReader(r.spec))
	tr.end(id, "")
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		busy := resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		return outcome{rejected: busy, err: fmt.Errorf("POST /v1/run: %s", resp.Status)}
	}
	br := bufio.NewReader(resp.Body)
	var body bytes.Buffer
	id = tr.begin("jobs.first_row", root, req+1)
	line, err := br.ReadBytes('\n')
	tr.end(id, "")
	body.Write(line)
	if err == nil {
		id = tr.begin("jobs.stream", root, req+1)
		_, err = body.ReadFrom(br)
		tr.end(id, "")
	}
	if err != nil && !errors.Is(err, io.EOF) {
		return outcome{err: err}
	}
	return outcome{body: body.Bytes()}
}

// closedLoop sends reqs with serviceInFlight outstanding at all times.
func (c *fleet) closedLoop(tr *tracer, reqs []request, offset int) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serviceInFlight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				o := c.do(tr, offset+i, reqs[i])
				o.latency, o.class = time.Since(t0), reqs[i].class
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return out
}

// parseRequests loads and validates every request spec, as the daemon will.
func parseRequests(tr *tracer, reqs []request) error {
	id := tr.begin("harness.load", 0, 0)
	defer tr.end(id, "")
	for i, r := range reqs {
		if _, _, err := harness.LoadSpecData("request", r.spec); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
	}
	return nil
}

// checkService compares every streamed row with a local sim.RunSweep
// rendering of the same spec, outside the timed phases, and returns the
// packet-hops the served rows hold. A scenario job is the one-point sweep
// over its own seed, as the daemon runs it.
func checkService(rep *report, reqs []request, all []outcome) int64 {
	type rendering struct {
		body []byte
		hops int64
		err  error
	}
	// Render each distinct spec once, on serviceInFlight workers.
	index := map[string]int{}
	var specs [][]byte
	for _, r := range reqs {
		if _, ok := index[string(r.spec)]; !ok {
			index[string(r.spec)] = len(specs)
			specs = append(specs, r.spec)
		}
	}
	renders := make([]rendering, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serviceInFlight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(specs); i = int(next.Add(1) - 1) {
				renders[i].body, renders[i].hops, renders[i].err = renderLocal(specs[i])
			}
		}()
	}
	wg.Wait()
	var hops int64
	for i, o := range all {
		if o.err != nil {
			rep.failed++
			fmt.Fprintf(os.Stderr, "perfbench: request %d (%s): %v\n", i, o.class, o.err)
			continue
		}
		want := renders[index[string(reqs[i].spec)]]
		if want.err != nil {
			rep.fail("request %d (%s): %v", i, o.class, want.err)
			continue
		}
		if !bytes.Equal(o.body, want.body) {
			rep.fail("request %d (%s): streamed rows differ from the local rendering", i, o.class)
			continue
		}
		hops += want.hops
	}
	return hops
}

// renderLocal runs a request spec through sim.RunSweep in this process,
// checks the model's identities on every point, and returns its JSONL rows
// and their packet-hops.
func renderLocal(spec []byte) ([]byte, int64, error) {
	scs, sw, err := harness.LoadSpecData("request", spec)
	if err != nil {
		return nil, 0, err
	}
	if sw == nil {
		sc := scs[0]
		sw = &sim.Sweep{Name: sc.Name, Base: sc, Axes: []sim.Axis{{Field: "seed", Values: []sim.Value{sim.Num(float64(sc.Seed))}}}}
	}
	local := *sw
	local.Parallelism = 1
	var buf bytes.Buffer
	rows, err := sim.RunSweep(context.Background(), local, sim.NewJSONLSink(&buf))
	if err != nil {
		return nil, 0, err
	}
	var hops int64
	for _, row := range rows {
		if msg := checkPoint(row.Scenario, row.Result); msg != "" {
			return nil, 0, fmt.Errorf("point %d: %s", row.Point, msg)
		}
		h, _ := resultWork(row.Result)
		hops += h
	}
	return buf.Bytes(), hops, nil
}
