package main

import "testing"

func TestCompareRefusesOtherHostClass(t *testing.T) {
	base := provenance{Workload: "fleet-evict", GOOS: "linux", GOARCH: "amd64", NProc: 2}
	if err := comparable(base, base); err != nil {
		t.Fatalf("identical provenance refused: %v", err)
	}
	for _, other := range []provenance{
		{Workload: "fleet-evict", GOOS: "linux", GOARCH: "amd64", NProc: 4},
		{Workload: "fleet-evict", GOOS: "linux", GOARCH: "arm64", NProc: 2},
		{Workload: "mixed-open", GOOS: "linux", GOARCH: "amd64", NProc: 2},
		{Workload: "fleet-evict", GOOS: "linux", GOARCH: "amd64", NProc: 2, Traced: true},
	} {
		if comparable(base, other) == nil {
			t.Errorf("compared %+v with %+v", base, other)
		}
	}
}
