// Command perfbench is pulphd's serving benchmark. It starts the
// `pulphd serve` binary it is given with its defaults, drives it over
// loopback HTTP with one of three seeded workloads, checks every
// answer, and prints the end-to-end metrics (-trace 0) or, from a
// separate traced run that also replays the workload in-process
// against the layers' public functions, the per-layer metrics
// (-trace 1). The last line of standard output is the result as one
// JSON object. See README.md; run it through run.sh, which builds both
// binaries from the working tree.
//
//	perfbench -pulphd bin -workload name -seed n -seconds s -trace 0|1 [-out file]
//	perfbench compare base.json new.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"pulphd/internal/hdc"
)

const (
	// measureSlices is how many slices an untraced run splits its measured
	// phase into. Between two slices it sets up setupsPerGap more
	// servers and stops them, so the set-up times, whose median is
	// setup_s, sample the whole run and not one second of it: the
	// host's speed drifts over seconds.
	measureSlices = 10
	setupsPerGap  = 2
	warmup        = time.Second
	// gcPercent keeps the generator's own garbage collections rare: the
	// client shares the host's CPUs with the server, and a collection
	// landing mid-phase reads as server latency.
	gcPercent = 400
	// probeEvery is how many requests each connection sends between
	// /healthz probes in the traced phase.
	probeEvery = 16
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root; per-run state lives under its .bench_build/")
	bin := fs.String("pulphd", "", "the pulphd binary to serve")
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed: request order, learns and tenants")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	out := fs.String("out", "", "also write the full record (provenance and metrics) to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.Arg(0) == "compare" {
		return compare(fs.Args()[1:], stdout)
	}
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -pulphd, -seconds ≥ 1 and -trace 0 or 1")
		return 2
	}
	debug.SetGCPercent(gcPercent)
	e, err := newEnv(*root, *bin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(e.runDir)
	w, err := newWorkload(*name, *seed, e.c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	rec := record{Provenance: e.provenance(w, *seed, *seconds, *trace == 1)}
	for _, warn := range e.defaults.warnings {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %s\n", warn)
		rec.note("WARNING: %s", warn)
	}
	dur := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		err = e.traced(context.Background(), w, dur, &rec)
	} else {
		err = e.untraced(context.Background(), w, dur, &rec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	rec.print(stdout)
	if *out != "" {
		b, _ := json.MarshalIndent(rec, "", "  ")
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// env is what every run shares: the binary, its flag defaults, the
// served model's configuration and the campaign.
type env struct {
	root, bin, runDir string
	nproc             int
	defaults          serveDefaults
	cfg               hdc.Config
	c                 *campaign
}

func newEnv(root, bin string) (*env, error) {
	if _, err := os.Stat(bin); err != nil {
		return nil, err
	}
	runDir := filepath.Join(root, ".bench_build", "runs", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	d, err := readServeDefaults(bin)
	if err != nil {
		return nil, err
	}
	cfg := hdc.EMGConfig()
	if cfg.Backend, err = hdc.ParseBackend(d.backend); err != nil {
		return nil, err
	}
	c, err := newCampaign()
	if err != nil {
		return nil, err
	}
	return &env{root: root, bin: bin, runDir: runDir, nproc: runtime.NumCPU(), defaults: d, cfg: cfg, c: c}, nil
}

// provenance records what produced a result. Results from different
// host classes (goos, goarch, nproc) are never compared.
type provenance struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Traced    bool   `json:"traced"`
	GitSHA    string `json:"git_sha"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NProc     int    `json:"nproc"`
	StateFS   string `json:"state_fs"`
	Backend   string `json:"im_backend"`
	Shards    int    `json:"shards"`
}

func (e *env) provenance(w *workload, seed int64, seconds int, traced bool) provenance {
	sha := "unknown"
	if _, err := os.Stat(filepath.Join(e.root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
			sha = strings.TrimSpace(string(out))
		}
	}
	return provenance{
		Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced,
		GitSHA: sha, GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: e.nproc, StateFS: fsName(e.runDir), Backend: e.defaults.backend, Shards: e.defaults.shards,
	}
}

func (p provenance) hostClass() string { return fmt.Sprintf("%s/%s/%dcpu", p.GOOS, p.GOARCH, p.NProc) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type record struct {
	Provenance provenance `json:"provenance"`
	result
	// Notes are human-readable report lines (sample counts, the traced
	// breakdown) printed before the metrics.
	Notes []string `json:"notes,omitempty"`
}

func (r *record) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{v, unit}
}

func (r *record) note(format string, a ...any) { r.Notes = append(r.Notes, fmt.Sprintf(format, a...)) }

// print writes the human-readable report, then the result line.
func (r *record) print(w io.Writer) {
	p, _ := json.Marshal(r.Provenance)
	fmt.Fprintf(w, "provenance %s\n", p)
	for _, n := range r.Notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	b, _ := json.Marshal(r.result)
	fmt.Fprintf(w, "%s\n", b)
}

// setUp starts the k-th server for w on a fresh state directory and
// seeds its models over HTTP. It returns the server, the seeding
// learns' latencies in ms, and the set-up time from exec to the last
// seeding learn acknowledged.
func (e *env) setUp(ctx context.Context, w *workload, k int, client *http.Client) (*server, []float64, time.Duration, error) {
	dir := e.setupDir(k)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	var extra []string
	if w.persistent {
		extra = append(extra, "-state-dir", filepath.Join(dir, "state"))
	}
	if w.budget > 0 {
		extra = append(extra, "-resident-budget", strconv.FormatInt(w.budget, 10))
	}
	runtime.GC()
	start := time.Now()
	srv, err := startServer(e.bin, filepath.Join(dir, "server.log"), extra...)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := srv.waitReady(ctx, client); err != nil {
		srv.stop()
		return nil, nil, 0, err
	}
	lat, err := e.seed(ctx, w, srv.base, client)
	if err != nil {
		srv.stop()
		return nil, nil, 0, fmt.Errorf("seeding: %w", err)
	}
	return srv, lat, time.Since(start), nil
}

func (e *env) setupDir(k int) string { return filepath.Join(e.runDir, fmt.Sprintf("setup%d", k)) }

// seed creates the workload's tenants and teaches every model its
// seeding slice, one learn at a time. Each acknowledgement must carry
// exactly the next generation.
func (e *env) seed(ctx context.Context, w *workload, base string, client *http.Client) ([]float64, error) {
	var lat []float64
	for _, sd := range w.seedPlan(e.c) {
		url := base + "/learn"
		if sd.tenant >= 0 {
			name := tenantName(sd.tenant)
			code, body, err := post(ctx, client, base+"/models", []byte(`{"name":"`+name+`"}`))
			if err != nil || code != 201 {
				return nil, fmt.Errorf("creating %s: %d %s %v", name, code, body, err)
			}
			url = base + "/models/" + name + "/learn"
		}
		for k, j := range sd.windows {
			t := time.Now()
			code, body, err := post(ctx, client, url, e.c.trainBodies[j])
			lat = append(lat, ms(time.Since(t)))
			if err != nil || code != 200 {
				return nil, fmt.Errorf("learn %d: %d %s %v", k, code, body, err)
			}
			var r learnResponse
			if err := json.Unmarshal(body, &r); err != nil || r.Generation != uint64(k+1) {
				return nil, fmt.Errorf("learn %d acked %s, want generation %d", k, body, k+1)
			}
		}
	}
	return lat, nil
}

// newChecker returns the answer checker for w.
func (e *env) newChecker(w *workload) (*checker, error) {
	want, err := w.references(e.c, e.cfg)
	if err != nil {
		return nil, err
	}
	return &checker{want: want, labels: e.c.labels, classes: len(e.c.labels)}, nil
}

// untraced measures the end-to-end metrics.
func (e *env) untraced(ctx context.Context, w *workload, dur time.Duration, rec *record) error {
	check, err := e.newChecker(w)
	if err != nil {
		return err
	}
	client := newClient(e.nproc)
	srv, seedLat, took, err := e.setUp(ctx, w, 0, client)
	if err != nil {
		return err
	}
	defer srv.stop()
	setupS := []float64{took.Seconds()}
	ph := phase{w: w, c: e.c, check: check, client: client, base: srv.base, conns: e.nproc, dur: warmup}
	warm := ph.run(ctx)
	ph.first, ph.dur = warm.sent, dur/measureSlices
	st := &phaseStats{}
	var cpu time.Duration
	for i := 0; i < measureSlices; i++ {
		for j := 0; i > 0 && j < setupsPerGap; j++ {
			took, err := e.throwawaySetUp(ctx, w, len(setupS), client)
			if err != nil {
				return err
			}
			setupS = append(setupS, took.Seconds())
		}
		cpu0, err := srv.cpu()
		if err != nil {
			return err
		}
		s := ph.run(ctx)
		cpu1, err := srv.cpu()
		if err != nil {
			return err
		}
		cpu += cpu1 - cpu0
		ph.first += s.sent
		st.merge(s)
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return fmt.Errorf("stopping server: %w", err)
	}
	if st.okPredicts == 0 {
		return errors.New("no predict succeeded")
	}
	learnLat, learnWhat := st.learnLat, "learn latency ms"
	if st.learns == 0 {
		// Only mixed-open learns while it is measured; the others report
		// their seeding learns on an idle server.
		learnLat, learnWhat = seedLat, "seeding learn latency ms (idle server)"
	}
	pl, ll := summarize(st.predictLat), summarize(learnLat)
	attempted := st.predicts + st.learns
	// The warm-up's answers are checked too; only its timings are
	// dropped.
	rec.Correct, rec.Attempted, rec.Failed = answersCorrect(warm, st), attempted, st.failed()
	rec.set("predict_p50_ms", pl.P50, "ms")
	rec.set("ok_pct", 100*float64(attempted-st.failed())/float64(attempted), "%")
	rec.set("accuracy_pct", 100*float64(st.truePredicts)/float64(st.okPredicts), "%")
	rec.set("server_cpu_us_per_req", float64(cpu.Microseconds())/float64(st.okPredicts+st.okLearns), "us")
	rec.set("server_rss_mb", float64(rss)/(1<<20), "MB")
	rec.set("setup_s", summarize(setupS).P50, "s")
	rec.note("%s: %s", w.name, w.why)
	rec.note("predict throughput %.6g/s; latency ms (%s): %v", float64(st.okPredicts)/st.elapsed.Seconds(), loopKind(w), pl)
	rec.note("%s: %v", learnWhat, ll)
	rec.note("set-up s: %.4g", setupS)
	rec.note("attempted %d (predicts %d, learns %d), failed %d (shed %d, timeout %d, 5xx %d, other %d, wrong %d), failed_pct %.4g %%",
		attempted, st.predicts, st.learns, st.failed(), st.shed, st.timeout, st.err5xx, st.otherErr, st.wrong,
		100*float64(st.failed())/float64(attempted))
	if w.rate > 0 {
		rec.note("generator lateness ms: %v", summarize(st.late))
	}
	noteFaults(rec, warm, st)
	return nil
}

// throwawaySetUp sets up the k-th server for w, stops it and removes
// its state, returning only the set-up time.
func (e *env) throwawaySetUp(ctx context.Context, w *workload, k int, client *http.Client) (time.Duration, error) {
	s, _, took, err := e.setUp(ctx, w, k, client)
	if err != nil {
		return 0, err
	}
	if err := s.stop(); err != nil {
		return 0, fmt.Errorf("stopping set-up %d: %w", k, err)
	}
	return took, os.RemoveAll(e.setupDir(k))
}

// answersCorrect reports whether every answer the phases received was
// right. A wrong answer, a 5xx other than 504, a 4xx or a transport
// error is a fault; 429 and 504 are the server's admission and
// deadline policy and count only as failures.
func answersCorrect(phases ...*phaseStats) bool {
	for _, st := range phases {
		if st.wrong+st.err5xx+st.otherErr > 0 {
			return false
		}
	}
	return true
}

// noteFaults records why answersCorrect failed: the first wrong
// answer and the count of faulty responses.
func noteFaults(rec *record, phases ...*phaseStats) {
	wrong, faulty := "", 0
	for _, st := range phases {
		if wrong == "" && st.wrong > 0 {
			wrong = st.firstWrong
		}
		faulty += st.err5xx + st.otherErr
	}
	if wrong != "" {
		rec.note("first wrong answer: %s", wrong)
	}
	if faulty > 0 {
		rec.note("%d responses were 5xx other than 504, 4xx or transport errors", faulty)
	}
}

func loopKind(w *workload) string {
	if w.rate > 0 {
		return fmt.Sprintf("open loop at %g/s, timed from due", w.rate)
	}
	return "closed loop, timed from send"
}
