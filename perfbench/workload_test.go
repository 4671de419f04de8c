package main

import (
	"fmt"
	"slices"
	"testing"
)

func TestZipfTenantsReproducibleFromSeed(t *testing.T) {
	a, b := zipfTenants(7, 20000), zipfTenants(7, 20000)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed drew two different tenant sequences")
	}
	if slices.Equal(a, zipfTenants(8, 20000)) {
		t.Fatal("different seeds drew the same tenant sequence")
	}
	counts := make([]int, fleetTenants)
	for _, x := range a {
		if x < 0 || x >= fleetTenants {
			t.Fatalf("tenant %d out of range", x)
		}
		counts[x]++
	}
	for k := 1; k < fleetTenants; k++ {
		if counts[k] > counts[0] {
			t.Fatalf("tenant %d drawn %d times, more than the head tenant's %d", k, counts[k], counts[0])
		}
	}
	if counts[fleetTenants-1] == 0 {
		t.Fatal("the tail tenant was never drawn; the fleet would not evict")
	}
}

func TestTenantSlicesDiffer(t *testing.T) {
	seen := map[string]int{}
	for tn := 0; tn < fleetTenants; tn++ {
		s := tenantSlice(tn, 345)
		slices.Sort(s)
		key := fmt.Sprint(s)
		if prev, ok := seen[key]; ok {
			t.Fatalf("tenants %d and %d are seeded with the same windows", prev, tn)
		}
		seen[key] = tn
	}
}
