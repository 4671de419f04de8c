package main

import (
	"flag"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"pulphd/internal/obs"
	sloeng "pulphd/internal/obs/slo"
	modreg "pulphd/internal/registry"
	"pulphd/internal/replica"
)

// TestOperationsDocCoverage enforces the operator's handbook in both
// directions: every serve flag and every exported pulphd_* metric
// family must appear in docs/OPERATIONS.md, and every flag row of its
// §2.1 table and every backticked pulphd_* family it names must exist.
// A flag or metric added without documentation, or removed without
// leaving the handbook, fails here, so the handbook cannot silently
// rot.
func TestOperationsDocCoverage(t *testing.T) {
	raw, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("operator's handbook missing: %v", err)
	}
	doc := string(raw)

	// Every serve flag, straight from the flag set runServe parses.
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	newServeFlags(fs)
	var missing []string
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.Contains(doc, "`-"+f.Name+"`") {
			missing = append(missing, "-"+f.Name)
		}
	})
	if len(missing) > 0 {
		t.Errorf("serve flags undocumented in docs/OPERATIONS.md: %v", missing)
	}
	serveTable, _, _ := strings.Cut(doc[strings.Index(doc, "### 2.1 `pulphd serve`"):], "\n### 2.2")
	var stale []string
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)`").FindAllStringSubmatch(serveTable, -1) {
		if fs.Lookup(m[1]) == nil {
			stale = append(stale, "-"+m[1])
		}
	}
	if len(stale) > 0 {
		t.Errorf("docs/OPERATIONS.md §2.1 documents flags `pulphd serve` does not have: %v", stale)
	}

	missing = missing[:0]
	registered := map[string]bool{}
	for _, name := range allRolesRegistry(t).Names() {
		registered[name] = true
		if !strings.Contains(doc, "`"+name+"`") {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		t.Errorf("metric families undocumented in docs/OPERATIONS.md (%d): %v", len(missing), missing)
	}
	// Wildcards such as `pulphd_serving_*` hold a '*' and do not match.
	stale = stale[:0]
	for _, m := range regexp.MustCompile("`(pulphd_[a-z0-9_]+)`").FindAllStringSubmatch(doc, -1) {
		if !registered[m[1]] {
			stale = append(stale, m[1])
		}
	}
	if len(stale) > 0 {
		t.Errorf("docs/OPERATIONS.md names metric families no role registers: %v", stale)
	}
}

// allRolesRegistry returns one registry holding every metric family any
// role can export: host + runtime + SLO engine + replica syncer +
// front (the registry panics on duplicate names, which also proves the
// families are disjoint).
func allRolesRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	h := obs.NewHostMetrics()
	obs.RegisterRuntimeMetrics(h.Registry)
	sloeng.New(sloeng.Config{}).RegisterMetrics(h.Registry)
	reg, err := modreg.Open(modreg.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	syncer, err := replica.NewSyncer(replica.SyncConfig{
		Primary: "http://primary.invalid", Registry: reg, Shards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	syncer.RegisterMetrics(h.Registry)
	front, err := replica.NewFront(replica.FrontConfig{
		Primary: "http://primary.invalid", Replicas: []string{"http://replica.invalid"},
	})
	if err != nil {
		t.Fatal(err)
	}
	front.RegisterMetrics(h.Registry)
	return h.Registry
}

// TestMetricVocabulary holds every exported family to one unit and
// naming vocabulary, read from the exposition's TYPE lines: histograms
// are latencies in seconds, counters end in _total, and no family
// carries a nanosecond unit.
func TestMetricVocabulary(t *testing.T) {
	var buf strings.Builder
	if err := allRolesRegistry(t).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	families := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, "# TYPE ")
		if !ok {
			continue
		}
		families++
		name, kind, _ := strings.Cut(rest, " ")
		if kind == "histogram" && !strings.HasSuffix(name, "_seconds") {
			t.Errorf("histogram %s does not end in _seconds", name)
		}
		if kind == "counter" && !strings.HasSuffix(name, "_total") {
			t.Errorf("counter %s does not end in _total", name)
		}
		if strings.HasSuffix(name, "_ns") {
			t.Errorf("family %s ends in _ns; export seconds", name)
		}
	}
	if families == 0 {
		t.Fatal("exposition has no TYPE lines")
	}
}

// TestOperationsDocEndpoints spot-checks that the endpoint catalog
// names the routes the binary actually registers, including the
// replication surface.
func TestOperationsDocEndpoints(t *testing.T) {
	raw, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, ep := range []string{
		"/predict", "/learn", "/healthz", "/readyz", "/models",
		"/metrics", "/debug/flight", "/debug/spans",
		"/replica/v1/models", "/replica/v1/models/{name}/snapshot",
		"min_generation", "ifnewer",
	} {
		if !strings.Contains(doc, ep) {
			t.Errorf("endpoint %s missing from docs/OPERATIONS.md", ep)
		}
	}
}
