package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"pulphd/internal/hdc"
	"pulphd/internal/hv"
	"pulphd/internal/model"
	"pulphd/internal/obs"
	"pulphd/internal/parallel"
	"pulphd/internal/registry"
)

// replayCap bounds the in-process replay: the first replayCap requests
// of the sequence the traced run sent, enough for stable medians while
// fleet-evict's fault-ins (each one an fsync'd eviction) stay within a
// few seconds.
var replayCap = map[string]int{"predict-closed": 20000, "mixed-open": 10000, "fleet-evict": 3000}

// traceSlices is how many untraced and how many traced slices the
// traced run alternates.
const traceSlices = 4

// traced measures the per-layer metrics. The server runs the workload
// untraced for half the measured time and traced for the other half:
// the traced half interleaves /healthz probes (the network and
// net/http floor) and times every /predict round trip; the difference
// between the halves' predict medians is the tracing overhead. The
// benchmark then replays the same request sequence in-process against
// the layers' public functions. cmd/pulphd is a main package, so its
// self time is what the round trip leaves once the floor and the
// layers below it are subtracted.
func (e *env) traced(ctx context.Context, w *workload, dur time.Duration, rec *record) error {
	check, err := e.newChecker(w)
	if err != nil {
		return err
	}
	client := newClient(e.nproc)
	srv, _, _, err := e.setUp(ctx, w, 0, client)
	if err != nil {
		return err
	}
	defer srv.stop()
	ph := phase{w: w, c: e.c, check: check, client: client, base: srv.base, conns: e.nproc, dur: warmup}
	warm := ph.run(ctx)
	// The untraced and traced halves alternate in slices, so drift in
	// the host or the server's state does not read as tracing overhead.
	plain, tr := &phaseStats{}, &phaseStats{}
	var genCPU time.Duration
	ph.first, ph.dur = warm.sent, dur/(2*traceSlices)
	for k := 0; k < 2*traceSlices; k++ {
		ph.probeEvery = k % 2 * probeEvery
		cpu0 := getrusageCPU()
		st := ph.run(ctx)
		ph.first += st.sent
		if ph.probeEvery == 0 {
			genCPU += getrusageCPU() - cpu0
			plain.merge(st)
		} else {
			tr.merge(st)
		}
	}
	if err := srv.stop(); err != nil {
		return fmt.Errorf("stopping server: %w", err)
	}
	both := &phaseStats{}
	both.merge(plain)
	both.merge(tr)
	rec.Correct, rec.Attempted, rec.Failed = answersCorrect(warm, both), both.predicts+both.learns, both.failed()
	noteFaults(rec, warm, both)
	if plain.okPredicts == 0 || tr.okPredicts == 0 || len(tr.floor) == 0 {
		return errors.New("traced run completed no predicts or no floor probes")
	}

	n := ph.first
	if c := replayCap[w.name]; n > c {
		n = c
	}
	lt, err := e.replay(ctx, w, check.want, n)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}

	floor := summarize(tr.floor).P50 * 1000
	rtt := summarize(tr.predictRTT).P50 * 1000
	lookup, predict := summarize(lt.lookup).P50, summarize(lt.predict).P50
	encode, search := summarize(lt.encode).P50, summarize(lt.search).P50
	self, selfErr := selfTime(rtt, floor, lookup, predict)
	if selfErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %v\n", selfErr)
		rec.note("WARNING: %v", selfErr)
	}
	untracedP50 := summarize(plain.predictLat).P50
	late := summarize(plain.late)

	rec.set("pulphd.floor_us", floor, "us")
	rec.set("pulphd.rtt_us", rtt, "us")
	rec.set("pulphd.self_us", self, "us")
	rec.set("pulphd.shed", float64(both.shed), "count")
	rec.set("pulphd.timeout", float64(both.timeout), "count")
	rec.set("pulphd.err5xx", float64(both.err5xx), "count")
	rec.set("pulphd.wrong", float64(both.wrong), "count")
	rec.set("hdc.encode_us", encode, "us")
	rec.set("hdc.search_us", search, "us")
	rec.set("hdc.search_flat_us", summarize(lt.searchFlat).P50, "us")
	rec.set("hdc.predict_us", predict, "us")
	rec.set("hdc.predict_allocs", lt.predictAllocs, "allocs/op")
	rec.set("hdc.learn_us", summarize(lt.learn).P50, "us")
	rec.set("registry.lookup_us", lookup, "us")
	rec.set("registry.correct_us", summarize(lt.correct).P50, "us")
	rec.set("registry.wal_append_us", summarize(lt.walAppend).P50, "us")
	rec.set("registry.wal_fsync_us", summarize(lt.walFsync).P50, "us")
	rec.set("registry.snapshot_ms", summarize(lt.snapshot).P50, "ms")
	rec.set("registry.faultin_ms", summarize(lt.faultIn).P50, "ms")
	if w.budget > 0 {
		// Only a budgeted workload evicts; elsewhere these read 1 and 0.
		rec.set("registry.hit_ratio", 1-float64(lt.misses)/float64(len(lt.lookup)), "ratio")
		rec.set("registry.evictions_per_kreq", 1000*float64(lt.evictions)/float64(n), "1/kreq")
	}
	rec.set("model.save_ms", summarize(lt.save).P50, "ms")
	rec.set("model.load_ms", summarize(lt.load).P50, "ms")
	rec.set("gen.late_p99_ms", late.Tail, "ms")
	rec.set("gen.cpu_us_per_req", float64(genCPU.Microseconds())/float64(plain.predicts+plain.learns), "us")
	rec.set("trace.overhead_pct", 100*(summarize(tr.predictLat).P50-untracedP50)/untracedP50, "%")

	rec.note("%s: %s", w.name, w.why)
	rec.note("traced phase: %d predicts, %d floor probes; replayed %d requests in-process (%d lookups, %d misses)",
		tr.okPredicts, len(tr.floor), n, len(lt.lookup), lt.misses)
	for _, row := range breakdown(rtt, floor, lookup, encode, search, predict, self) {
		rec.note("%s", row)
	}
	return nil
}

// selfTime is cmd/pulphd's share of a /predict round trip: what is
// left of the RTT once the network and net/http floor, the registry
// lookup and the hdc predict are subtracted (all medians, µs). A
// negative result means the layer timings, taken in-process, add up
// to more than the server's round trip; it is returned as measured,
// with an error, never clamped.
func selfTime(rtt, floor, lookup, predict float64) (float64, error) {
	self := rtt - floor - lookup - predict
	if self < 0 {
		return self, fmt.Errorf("pulphd self time %.2f µs is negative: floor %.2f + lookup %.2f + predict %.2f exceed the %.2f µs round trip",
			self, floor, lookup, predict, rtt)
	}
	return self, nil
}

// breakdown renders where the /predict round-trip median goes, in µs
// and as a share of the RTT.
func breakdown(rtt, floor, lookup, encode, search, predict, self float64) []string {
	rows := []struct {
		name string
		us   float64
	}{
		{"floor (loopback + net/http)", floor},
		{"registry lookup", lookup},
		{"hdc encode", encode},
		{"hdc search (served shards)", search},
		{"hdc predict, rest", predict - encode - search},
		{"pulphd self", self},
	}
	out := []string{fmt.Sprintf("where the /predict p50 goes (RTT %.1f µs):", rtt)}
	for _, r := range rows {
		out = append(out, fmt.Sprintf("  %-30s %9.2f µs %6.1f%%", r.name, r.us, 100*r.us/rtt))
	}
	return out
}

// layerTimes holds the in-process replay's per-call timings: µs for
// the per-request layers, ms for the codec and disk ones.
type layerTimes struct {
	lookup, predict, encode, search, searchFlat []float64
	correct, learn, walAppend, walFsync         []float64
	snapshot, faultIn, save, load               []float64
	misses                                      int
	evictions                                   int64
	predictAllocs                               float64
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// replay rebuilds the server's model layers in-process, with the
// server's flag defaults and the workload's deployment settings, seeds
// them exactly as set-up did, and replays the first n requests of the
// workload's sequence, timing each layer call on the way. Answers are
// checked against want as on the wire.
func (e *env) replay(ctx context.Context, w *workload, want []answer, n int) (*layerTimes, error) {
	d := e.defaults
	dir := ""
	if w.persistent {
		dir = filepath.Join(e.runDir, "replay")
	}
	m := obs.NewRegistryMetrics()
	reg, err := registry.Open(registry.Config{
		Dir: dir, Shards: d.shards, ResidentBudget: w.budget,
		SnapshotEvery: d.snapshotEvery, SyncWAL: d.walSync, Metrics: m,
	})
	if err != nil {
		return nil, err
	}
	defer reg.Close()
	// NewPool sizes a pool of 0 workers as the server's does.
	pool := parallel.NewPool(d.workers)
	defer pool.Close()

	// Like the server, boot with an empty default model, then create
	// the tenants; the default model counts against the budget.
	names := map[int]string{-1: "default"}
	sv, err := hdc.NewServing(e.cfg, d.shards)
	if err != nil {
		return nil, err
	}
	if err := reg.Adopt(names[-1], sv); err != nil {
		return nil, err
	}
	lt := &layerTimes{}
	plain := map[int]*hdc.Serving{} // hdc-only twins: the learn path without the registry
	var seedCorrect, seedLearn []float64
	for _, sd := range w.seedPlan(e.c) {
		if sd.tenant >= 0 {
			names[sd.tenant] = tenantName(sd.tenant)
			if _, err := reg.Create(names[sd.tenant], e.cfg); err != nil {
				return nil, err
			}
		}
		if plain[sd.tenant], err = hdc.NewServing(e.cfg, d.shards); err != nil {
			return nil, err
		}
		for _, j := range sd.windows {
			c, l, err := e.timeLearn(ctx, reg, names[sd.tenant], plain[sd.tenant], j)
			if err != nil {
				return nil, err
			}
			seedCorrect, seedLearn = append(seedCorrect, c), append(seedLearn, l)
		}
	}

	cls, err := hdc.New(e.cfg)
	if err != nil {
		return nil, err
	}
	query := hv.New(e.cfg.D)
	scratch := make([]hdc.ShardBest, d.shards)
	sessions := map[*hdc.Serving]*hdc.Session{}
	evict0 := m.Evictions.Value()
	for i := 0; i < n; i++ {
		r := w.seq[i%len(w.seq)]
		name := names[int(r.tenant)]
		if r.kind == learn {
			c, l, err := e.timeLearn(ctx, reg, name, plain[int(r.tenant)], int(r.window))
			if err != nil {
				return nil, err
			}
			lt.correct, lt.learn = append(lt.correct, c), append(lt.learn, l)
			continue
		}
		window := e.c.test[r.window].Window
		faults := m.FaultIns.Value()
		t := time.Now()
		sv, err := reg.ServingCtx(ctx, name)
		lt.lookup = append(lt.lookup, us(time.Since(t)))
		if err != nil {
			return nil, err
		}
		if m.FaultIns.Value() != faults {
			lt.misses++
		}
		ses := sessions[sv]
		if ses == nil {
			// Every fault-in brings a new Serving; like the server's
			// dispatcher, keep at most 64 sessions.
			if len(sessions) >= 64 {
				clear(sessions)
			}
			ses = sv.NewSession()
			sessions[sv] = ses
		}
		t = time.Now()
		label, dist := ses.PredictCtx(ctx, pool, window)
		lt.predict = append(lt.predict, us(time.Since(t)))
		if want != nil && (label != want[i%len(want)].label || dist != want[i%len(want)].distance) {
			return nil, fmt.Errorf("request %d: in-process %s/%d, reference %s/%d", i, label, dist, want[i%len(want)].label, want[i%len(want)].distance)
		}
		t = time.Now()
		cls.EncodeWindowTo(query, window)
		lt.encode = append(lt.encode, us(time.Since(t)))
		am := sv.AM()
		t = time.Now()
		am.NearestInto(scratch, query, pool)
		lt.search = append(lt.search, us(time.Since(t)))
		t = time.Now()
		am.NearestInto(nil, query, nil)
		lt.searchFlat = append(lt.searchFlat, us(time.Since(t)))
	}
	lt.evictions = m.Evictions.Value() - evict0
	if len(lt.correct) == 0 {
		// Only mixed-open learns in its sequence; the others' learn
		// layers are timed on their seeding learns, as their reported
		// learn latency is.
		lt.correct, lt.learn = seedCorrect, seedLearn
	}

	sv, err = reg.Serving(names[w.seedPlan(e.c)[0].tenant])
	if err != nil {
		return nil, err
	}
	lt.predictAllocs = allocsPerPredict(ctx, sv, pool, e.c)
	if err := e.probeDisk(sv, lt); err != nil {
		return nil, err
	}
	return lt, nil
}

// timeLearn applies training window j to the registry model name (as
// /learn does, through CorrectCtx) and to its hdc-only twin, and
// returns both durations in µs.
func (e *env) timeLearn(ctx context.Context, reg *registry.Registry, name string, twin *hdc.Serving, j int) (float64, float64, error) {
	win := e.c.train[j]
	t := time.Now()
	if err := reg.CorrectCtx(ctx, name, win.Label, win.Window); err != nil {
		return 0, 0, err
	}
	c := us(time.Since(t))
	t = time.Now()
	if err := twin.LearnCtx(ctx, win.Label, win.Window); err != nil {
		return 0, 0, err
	}
	return c, us(time.Since(t)), nil
}

// allocsPerPredict is the heap allocations per PredictCtx on sv over
// the served shard layout.
func allocsPerPredict(ctx context.Context, sv *hdc.Serving, pool *parallel.Pool, c *campaign) float64 {
	const runs = 1000
	ses := sv.NewSession()
	ses.PredictCtx(ctx, pool, c.test[0].Window)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		ses.PredictCtx(ctx, pool, c.test[i%len(c.test)].Window)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// probeDisk times the snapshot codec, the WAL and the registry's
// snapshot and fault-in paths on a copy of the workload's first model,
// in their own state directory, so every workload reports them.
//   - model.save_ms / model.load_ms: SaveServing / LoadServing through
//     memory, the codec alone.
//   - registry.snapshot_ms: Registry.Snapshot, codec plus write, fsync
//     and rename.
//   - registry.faultin_ms: a lookup of a cold model under a budget
//     that holds one model, so the stall includes the eviction it
//     forces, as every fleet-evict miss does.
//   - registry.wal_append_us / wal_fsync_us: WAL.Append without and
//     with per-record fsync.
func (e *env) probeDisk(sv *hdc.Serving, lt *layerTimes) error {
	d := e.defaults
	dir := filepath.Join(e.runDir, "probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var snap bytes.Buffer
	for i := 0; i < 20; i++ {
		snap.Reset()
		t := time.Now()
		if err := model.SaveServing(&snap, sv, 1); err != nil {
			return err
		}
		lt.save = append(lt.save, ms(time.Since(t)))
	}
	var copies []*hdc.Serving
	for i := 0; i < 20; i++ {
		t := time.Now()
		cp, _, err := model.LoadServing(bytes.NewReader(snap.Bytes()), d.shards)
		lt.load = append(lt.load, ms(time.Since(t)))
		if err != nil {
			return err
		}
		copies = append(copies, cp)
	}
	reg, err := registry.Open(registry.Config{Dir: filepath.Join(dir, "one"), Shards: d.shards, ResidentBudget: 1,
		SnapshotEvery: d.snapshotEvery, SyncWAL: d.walSync})
	if err != nil {
		return err
	}
	defer reg.Close()
	names := []string{"a", "b"}
	for i, name := range names {
		if err := reg.Adopt(name, copies[i]); err != nil {
			return err
		}
	}
	// Adopting b evicted a; each lookup now faults one in and evicts
	// the other. The last lookup leaves b resident for the snapshots.
	for i := 0; i < 10; i++ {
		t := time.Now()
		if _, err := reg.Serving(names[i%2]); err != nil {
			return err
		}
		lt.faultIn = append(lt.faultIn, ms(time.Since(t)))
	}
	for i := 0; i < 10; i++ {
		t := time.Now()
		if err := reg.Snapshot("b"); err != nil {
			return err
		}
		lt.snapshot = append(lt.snapshot, ms(time.Since(t)))
	}
	for _, sync := range []bool{false, true} {
		wal, err := registry.OpenWAL(filepath.Join(dir, fmt.Sprintf("sync-%v.wal", sync)), 1, 0, sync)
		if err != nil {
			return err
		}
		runs := 200
		if sync {
			runs = 30
		}
		for i := 0; i < runs; i++ {
			win := e.c.train[i%len(e.c.train)]
			t := time.Now()
			if err := wal.Append(registry.OpCorrect, win.Label, win.Window); err != nil {
				wal.Close()
				return err
			}
			if sync {
				lt.walFsync = append(lt.walFsync, us(time.Since(t)))
			} else {
				lt.walAppend = append(lt.walAppend, us(time.Since(t)))
			}
		}
		if err := wal.Close(); err != nil {
			return err
		}
	}
	return nil
}

// getrusageCPU returns this process's CPU time so far.
func getrusageCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
