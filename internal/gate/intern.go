package gate

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/sp"
)

// The package interns configurations: it hands out exactly one *Gate per
// (cell name, pin order, ConfigKey), so two gates it returned denote the
// same configuration iff they are the same pointer. Caches downstream
// (core's gate-model templates) key on the pointer, and the optimizer's
// move test is a pointer comparison.
//
// The first gate of a cell to be interned enumerates the cell's whole
// orbit and registers every member, so each configuration's tree — and
// with it the parallel-branch order ConfigKey normalizes away, which
// fixes the transistor graph's node numbering — is the one enumerated
// from that first gate. For library cells that is the prototype,
// interned when package library initializes. The registry is safe for
// concurrent use and unbounded: the library contributes at most a few
// hundred configurations in total.
var registry = struct {
	sync.Mutex
	m map[string]*Gate
}{m: map[string]*Gate{}}

// orbit is the shared enumeration of one cell: every configuration,
// sorted by ConfigKey, and their layout-instance partition, built once on
// first use. Every member points at it.
type orbit struct {
	configs   []*Gate
	once      sync.Once
	instances []Instance
}

// registryKey identifies a configuration: the cell name and pin order
// disambiguate distinct cells whose networks happen to serialize
// identically.
func registryKey(g *Gate) string {
	return g.Name + "|" + strings.Join(g.Inputs, ",") + "|" + g.ConfigKey()
}

// intern returns the registered gate for g's configuration, enumerating
// and registering g's whole orbit the first time its cell is seen. A
// registered g is returned as is.
func intern(g *Gate) *Gate {
	if g.orbit != nil {
		return g
	}
	f := &Gate{Name: g.Name, Inputs: append([]string(nil), g.Inputs...), PD: g.PD.Flatten(), PU: g.PU.Flatten()}
	key := registryKey(f)
	registry.Lock()
	defer registry.Unlock()
	if m, ok := registry.m[key]; ok {
		return m
	}
	// Membership in an orbit is an equivalence (same name, pins and
	// shapes), so a miss means no member is registered yet.
	o := &orbit{configs: f.enumerateConfigs()}
	for _, cfg := range o.configs {
		cfg.orbit = o
		registry.m[registryKey(cfg)] = cfg
	}
	m, ok := registry.m[key]
	if !ok {
		panic(fmt.Sprintf("gate: configuration %s missing from its own enumeration", key))
	}
	return m
}

// enumerateConfigs enumerates every configuration of g's cell, sorted by
// ConfigKey.
func (g *Gate) enumerateConfigs() []*Gate {
	var out []*Gate
	for _, pd := range sp.Orderings(g.PD) {
		for _, pu := range sp.Orderings(g.PU) {
			out = append(out, &Gate{Name: g.Name, Inputs: g.Inputs, PD: pd, PU: pu})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ConfigKey() < out[j].ConfigKey() })
	return out
}

// partition returns the orbit's layout instances, computing them once:
// the union-find of its configurations under the input automorphisms of
// the cell shape.
func (o *orbit) partition() []Instance {
	o.once.Do(func() {
		configs := o.configs
		autos := sp.Automorphisms(configs[0].PD) // the PU shape is the dual: same symmetries
		idx := make(map[string]int, len(configs))
		for i, c := range configs {
			idx[c.ConfigKey()] = i
		}
		parent := make([]int, len(configs))
		for i := range parent {
			parent[i] = i
		}
		var find func(int) int
		find = func(x int) int {
			for parent[x] != x {
				parent[x] = parent[parent[x]]
				x = parent[x]
			}
			return x
		}
		for i, c := range configs {
			for _, m := range autos {
				img := &Gate{PD: c.PD.RenameInputs(m), PU: c.PU.RenameInputs(m)}
				j, ok := idx[img.ConfigKey()]
				if !ok {
					panic("gate: automorphism image is not a configuration")
				}
				ri, rj := find(i), find(j)
				if ri != rj {
					parent[rj] = ri
				}
			}
		}
		groups := map[int][]*Gate{}
		for i, c := range configs {
			r := find(i)
			groups[r] = append(groups[r], c)
		}
		var orbits [][]*Gate
		for _, grp := range groups {
			orbits = append(orbits, grp)
		}
		sort.Slice(orbits, func(i, j int) bool { return orbits[i][0].ConfigKey() < orbits[j][0].ConfigKey() })
		o.instances = make([]Instance, len(orbits))
		for i, grp := range orbits {
			o.instances[i] = Instance{Label: instanceLabel(i), Configs: grp}
		}
	})
	return o.instances
}
