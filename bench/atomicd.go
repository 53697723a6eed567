package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"atomicsmodel/internal/jobs"
)

// jobKind is the shape of one atomicd job: one quick workload or app
// preset on one machine.
type jobKind struct{ machine, workload, app string }

// The fresh-job mix: 85 % workload jobs, the four closed-loop presets
// (open-loop-faa runs a fixed offered load rather than a ladder) in
// equal shares, and 15 % app jobs, three app presets in equal shares,
// all spread evenly over five machines. Per machine that is 17 jobs of
// each workload to 4 of each app: 68 to 12 of every 80.
const (
	workloadWeight = 17
	appWeight      = 4
)

// jobMix is every kind of fresh job a client submits, with its weight
// in the mix.
func jobMix() []dealtKind {
	var mix []dealtKind
	for _, m := range []string{"XeonE5", "KNL", "EPYC", "XeonSP", "Grace"} {
		for _, w := range []string{"high-faa", "high-cas-retry", "low-faa", "read-mix"} {
			mix = append(mix, dealtKind{kind: jobKind{machine: m, workload: w}, weight: workloadWeight})
		}
		for _, a := range []string{"treiber", "faa-counter", "cas-counter"} {
			mix = append(mix, dealtKind{kind: jobKind{machine: m, app: a}, weight: appWeight})
		}
	}
	return mix
}

// dealtKind is a job kind, its weight in the mix and its credit in a
// client's deal.
type dealtKind struct {
	kind           jobKind
	weight, credit int
}

// seededKinds are the jobs atomicd-dedup completes during set-up and
// then resubmits: the four closed-loop workload presets and two app
// presets, all on XeonE5.
var seededKinds = []jobKind{
	{machine: "XeonE5", workload: "high-faa"},
	{machine: "XeonE5", workload: "high-cas-retry"},
	{machine: "XeonE5", workload: "low-faa"},
	{machine: "XeonE5", workload: "read-mix"},
	{machine: "XeonE5", app: "treiber"},
	{machine: "XeonE5", app: "faa-counter"},
}

const (
	// clients is the number of closed-loop atomicd clients, each with at
	// most one request in flight, and of daemon workers.
	clients = 2
	// goldenPerClient is how many of each client's first fresh jobs the
	// atomicd-jobs digest covers: a prefix every run completes.
	goldenPerClient = 4
	// waitTimeout bounds one long-poll; a quick job takes well under it.
	waitTimeout = 60 * time.Second
	// detailRequests bounds how many of each client's requests a traced
	// run records spans for, so a trace of a hundred thousand dedup
	// requests stays small.
	detailRequests = 200
)

// daemon is an in-process atomicd: jobs.New behind an HTTP test server
// on a loopback port, driven by clients over real HTTP.
type daemon struct {
	srv *jobs.Server
	hs  *httptest.Server
	hc  *http.Client

	dedup  bool
	seeded []doneJob // atomicd-dedup: the jobs set-up completed

	mu       sync.Mutex
	issued   []doneJob            // every fresh job of the window
	firstOf  map[string][]byte    // id → result of each client's first jobs
	samples  map[string][]float64 // per-layer timings, ms
	resubmit int
}

// doneJob is one completed job: its request body, id and result.
type doneJob struct {
	body   []byte
	id     string
	result []byte
}

func openDaemon(r *run, dedup bool) (*daemon, error) {
	srv, err := jobs.New(jobs.Config{Dir: filepath.Join(r.dir, "atomicd"), Workers: clients, CellPar: 1})
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:     srv,
		hs:      httptest.NewServer(srv.Handler()),
		hc:      &http.Client{Timeout: 2 * waitTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}},
		dedup:   dedup,
		firstOf: map[string][]byte{},
		samples: map[string][]float64{},
	}
	if dedup {
		kinds := seededKinds
		if r.smoke {
			kinds = kinds[:2]
		}
		gen := newJobStream(r.seed, clients)
		for k, kind := range kinds {
			body := gen.body(kind, k)
			id, result, err := d.request(r, r.tr, clients, body, true, nil)
			if err != nil {
				d.close()
				return nil, fmt.Errorf("seeding job %d: %w", k, err)
			}
			d.seeded = append(d.seeded, doneJob{body, id, result})
		}
		d.samples = map[string][]float64{} // set-up is not part of the window
	}
	return d, nil
}

func openJobs(r *run, root string) (instance, error)  { return openDaemon(r, false) }
func openDedup(r *run, root string) (instance, error) { return openDaemon(r, true) }

// jobStream deals one client's fresh job requests from the job mix by
// smooth weighted round-robin: before each deal every kind gains its
// weight in credit, and the kind with the most credit is dealt and
// pays back the total weight. Every whole round of 400 requests holds
// the mix exactly, and every shorter run of requests holds each kind
// to within a job or two of its share, so a window's mix does not
// depend on where the window ends. A quick low-faa job takes several
// times longer than the other kinds, and a drawn mix would make the
// throughput depend on how many of them a window happened to draw.
// The seed shuffles the kinds, which orders the deal among kinds of
// equal credit, and every job gets its own seed, so every request is a
// distinct job that simulates.
type jobStream struct {
	mix    []dealtKind
	total  int
	base   uint64
	client int
}

func newJobStream(seed uint64, client int) *jobStream {
	g := &jobStream{mix: jobMix(), base: seed, client: client}
	rng := rand.New(rand.NewSource(int64(seed)*7919 + int64(client)))
	rng.Shuffle(len(g.mix), func(i, j int) { g.mix[i], g.mix[j] = g.mix[j], g.mix[i] })
	for _, d := range g.mix {
		g.total += d.weight
	}
	return g
}

// next returns the client's k-th request.
func (g *jobStream) next(k int) []byte { return g.body(g.deal(), k) }

// deal picks the kind of the client's next job.
func (g *jobStream) deal() jobKind {
	best := 0
	for i := range g.mix {
		g.mix[i].credit += g.mix[i].weight
		if g.mix[i].credit > g.mix[best].credit {
			best = i
		}
	}
	g.mix[best].credit -= g.total
	return g.mix[best].kind
}

// body is the JSON request for a job of the given kind, seeded from the
// run's seed, the client and the request's index.
func (g *jobStream) body(kind jobKind, k int) []byte {
	req := struct {
		Machines  []string `json:"machines"`
		Workloads []string `json:"workloads,omitempty"`
		Apps      []string `json:"apps,omitempty"`
		Quick     bool     `json:"quick"`
		Seed      uint64   `json:"seed"`
	}{
		Machines: []string{kind.machine},
		Quick:    true,
		Seed:     g.base*1_000_000 + uint64(g.client)*100_000 + uint64(k) + 1,
	}
	if kind.app != "" {
		req.Apps = []string{kind.app}
	} else {
		req.Workloads = []string{kind.workload}
	}
	b, _ := json.Marshal(req) // a struct of strings and numbers always encodes
	return b
}

func (d *daemon) measure(r *run) error {
	r.startWindow()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r.enter()
			defer r.leave()
			gen := newJobStream(r.seed, c)
			pick := rand.New(rand.NewSource(int64(r.seed)*31 + int64(c)))
			for k := 0; r.more(k, clients); k++ {
				tr := r.tr
				if k >= detailRequests {
					tr = nil
				}
				start := time.Now()
				if d.dedup {
					job := d.seeded[pick.Intn(len(d.seeded))]
					_, result, err := d.request(r, tr, c, job.body, false, &job.id)
					if err == nil && !bytes.Equal(result, job.result) {
						err = fmt.Errorf("dedup of %s returned a different result", job.id)
					}
					r.done(start, err)
					d.mu.Lock()
					d.resubmit++
					d.mu.Unlock()
				} else {
					body := gen.next(k)
					id, result, err := d.request(r, tr, c, body, true, nil)
					r.done(start, err)
					if err == nil {
						d.mu.Lock()
						d.issued = append(d.issued, doneJob{body, id, nil})
						if k < goldenPerClient {
							d.firstOf[id] = result
						}
						d.mu.Unlock()
					}
				}
				r.checkpoint(0)
			}
		}(c)
	}
	wg.Wait()
	return nil
}

// check verifies the daemon's own accounting once the clients are
// done — nothing shed, one execution per distinct job, one dedup per
// resubmission — and that every job id is its spec's digest, timing
// jobs.ParseSpec plus Spec.ID for each.
func (d *daemon) check(r *run) error {
	jobsRun := d.issued
	if d.dedup {
		jobsRun = d.seeded
	}
	for _, j := range jobsRun {
		t0 := time.Now()
		spec, err := jobs.ParseSpec(j.body)
		if err != nil {
			return err
		}
		id, err := spec.ID()
		d.sample("spec_id_us", us(time.Since(t0)))
		if err != nil {
			return err
		}
		if id != j.id {
			r.problem("job id %s, but its spec digests to %s", j.id, id)
		}
	}

	st, err := d.healthz()
	if err != nil {
		return err
	}
	if st.Shed != 0 {
		r.problem("atomicd shed %d requests", st.Shed)
	}
	if d.dedup {
		if st.Executed != uint64(len(d.seeded)) || st.Deduped != uint64(d.resubmit) {
			r.problem("atomicd executed %d jobs and deduplicated %d, want %d and %d",
				st.Executed, st.Deduped, len(d.seeded), d.resubmit)
		}
		pairs := map[string][]byte{}
		for _, j := range d.seeded {
			pairs[j.id] = j.result
		}
		r.digest = digestPairs(pairs)
		return nil
	}
	if st.Executed != uint64(len(d.issued)) {
		r.problem("atomicd executed %d jobs for %d distinct requests", st.Executed, len(d.issued))
	}
	if want := clients * goldenPerClient; len(d.firstOf) != want && r.maxOps == 0 {
		r.problem("only %d of the %d jobs the digest covers completed", len(d.firstOf), want)
	}
	r.digest = digestPairs(d.firstOf)
	return nil
}

func (d *daemon) healthz() (jobs.Stats, error) {
	var st jobs.Stats
	resp, err := d.hc.Get(d.hs.URL + "/healthz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// request is one client round trip: POST /jobs, long-poll the job to a
// terminal state unless it already is, then GET its result. A fresh
// job must be admitted (202); a resubmission must deduplicate (200)
// onto wantID. With a tracer, the calls are recorded as spans, and so
// are an unfinished job's states as its /stream shows them.
func (d *daemon) request(r *run, tr *tracer, c int, body []byte, fresh bool, wantID *string) (string, []byte, error) {
	track := fmt.Sprintf("client %d", c)
	root := tr.begin("jobs", "request", track, 0)
	defer tr.end(root)
	t0 := time.Now()

	wantCode, sample := http.StatusOK, "dedup_submit"
	if fresh {
		wantCode, sample = http.StatusAccepted, "submit"
	}
	call := func(sample, name, method, path string, body []byte, wantCode int, out any) error {
		return d.call(tr, track, root, sample, name, method, path, body, wantCode, out)
	}
	var st jobs.Status
	if err := call(sample, "POST /jobs", http.MethodPost, "/jobs", body, wantCode, &st); err != nil {
		return "", nil, err
	}
	if wantID != nil && st.ID != *wantID {
		return "", nil, fmt.Errorf("resubmission got job %s, want %s", st.ID, *wantID)
	}

	// A client long-polls only a job that is not finished yet; a
	// resubmitted job is usually done already.
	if !st.State.Terminal() {
		var states sync.WaitGroup
		if tr != nil {
			states.Add(1)
			go func() {
				defer states.Done()
				d.followStream(r, tr, c, root, st.ID, t0)
			}()
		}
		err := call("wait", "GET /jobs/{id}?wait", http.MethodGet, "/jobs/"+st.ID+"?wait="+waitTimeout.String(), nil, http.StatusOK, &st)
		states.Wait()
		if err != nil {
			return "", nil, err
		}
	}
	if st.State != jobs.StateDone {
		return "", nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	var result []byte
	if err := call("result", "GET /jobs/{id}/result", http.MethodGet, "/jobs/"+st.ID+"/result", nil, http.StatusOK, &result); err != nil {
		return "", nil, err
	}
	return st.ID, result, nil
}

// call makes one HTTP call, checks its status code, decodes a JSON
// body into out (or keeps a raw body when out is a *[]byte), records a
// span and, when sample is set, the call's latency under that name.
func (d *daemon) call(tr *tracer, track string, parent int, sample, name, method, path string, body []byte, wantCode int, out any) error {
	t0 := time.Now()
	req, err := http.NewRequest(method, d.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("X-Client", track)
	resp, err := d.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.add("jobs", name, track, parent, t0, time.Now())
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if resp.StatusCode != wantCode {
		return fmt.Errorf("%s: status %d, want %d: %s", name, resp.StatusCode, wantCode, bytes.TrimSpace(raw))
	}
	if sample != "" {
		d.sample(sample, ms(time.Since(t0)))
	}
	if p, ok := out.(*[]byte); ok {
		*p = raw
		return nil
	}
	return json.Unmarshal(raw, out)
}

func (d *daemon) sample(name string, v float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.samples[name] = append(d.samples[name], v)
}

// followStream reads a job's NDJSON status stream until its terminal
// event and records the job's states as spans: queued from the submit
// until running is first seen, running from then until done. The
// reader shares the CPU with the job, so the states are as a client
// sees them, late by its scheduling delay.
func (d *daemon) followStream(r *run, tr *tracer, c, parent int, id string, submitted time.Time) {
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.hs.URL+"/jobs/"+id+"/stream", nil)
	if err != nil {
		r.problem("stream %s: %v", id, err)
		return
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		r.problem("stream %s: %v", id, err)
		return
	}
	defer resp.Body.Close()
	track := fmt.Sprintf("job (client %d)", c)
	running := submitted
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var st jobs.Status
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			r.problem("stream %s: %v", id, err)
			return
		}
		switch now := time.Now(); {
		case st.State == jobs.StateRunning && running == submitted:
			tr.add("jobs", "job queued", track, parent, submitted, now)
			running = now
		case st.State.Terminal() && running == submitted: // done before the stream attached
			tr.add("jobs", "job", track, parent, submitted, now)
			return
		case st.State.Terminal():
			tr.add("jobs", "job running", track, parent, running, now)
			return
		}
	}
	if err := sc.Err(); err != nil {
		r.problem("stream %s: %v", id, err)
	}
}

// layers reports the jobs layer: call latencies by route (the
// long-poll's is a fresh job's queue and run time as its client waits
// for it), the spec-digest cost, and the daemon's cache and shedding
// counters.
func (d *daemon) layers(r *run) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	med := func(name string) float64 { return Median(d.samples[name]) }
	r.setLayer("jobs.submit_ms_p50", med("submit"))
	r.setLayer("jobs.dedup_submit_ms_p50", med("dedup_submit"))
	r.setLayer("jobs.result_ms_p50", med("result"))
	r.setLayer("jobs.wait_ms_p50", med("wait"))
	r.setLayer("jobs.wait_ms_p90", Percentile(d.samples["wait"], 90))
	r.setLayer("jobs.request_ms_p90", Percentile(r.latMS, 90))
	r.setLayer("jobs.spec_id_us_p50", med("spec_id_us"))

	st, err := d.healthz()
	if err != nil {
		return err
	}
	r.setLayer("jobs.cache_hit_frac", ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)))
	r.setLayer("jobs.shed", float64(st.Shed))
	return nil
}

// close stops the HTTP server and drains the daemon, which closes its
// journal and cache.
func (d *daemon) close() error {
	d.hc.CloseIdleConnections()
	d.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), waitTimeout)
	defer cancel()
	return d.srv.Drain(ctx)
}
