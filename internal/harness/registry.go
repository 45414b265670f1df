package harness

import (
	"fmt"
	"sort"

	"charm"
)

// Experiments maps experiment ids to their regenerators.
func (o Options) Experiments() map[string]func() *Table {
	return map[string]func() *Table{
		"fig1":     o.Fig1,
		"fig3":     o.Fig3,
		"fig4":     o.Fig4,
		"fig5":     o.Fig5,
		"fig7":     o.Fig7,
		"tab1":     o.Tab1,
		"fig8":     o.Fig8,
		"fig9":     o.Fig9,
		"tab2":     o.Tab2,
		"fig10":    o.Fig10,
		"fig11":    o.Fig11,
		"fig12":    o.Fig12,
		"fig13":    o.Fig13,
		"fig14":    o.Fig14,
		"sens":     o.Sensitivity,
		"abl":      o.Ablation,
		"gran":     o.Granularity,
		"chaos":    o.Chaos,
		"overload": o.Overload,
		"thermal":  o.Thermal,
		"tenants":  o.Tenants,
		"topo":     o.Topo,
	}
}

// IDs returns the experiment ids in a stable order.
func (o Options) IDs() []string {
	m := o.Experiments()
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run regenerates one experiment by id. The id is stamped onto the
// by-value receiver before the experiment closures are built, so the
// metrics captures of concurrently running experiments attribute
// correctly. A malformed Faults spec fails here, before any runtime is built.
func (o Options) Run(id string) (*Table, error) {
	o.obsExp = id
	f, ok := o.Experiments()[id]
	if !ok {
		return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", id, o.IDs())
	}
	if o.Faults != "" {
		if _, err := charm.ParseFaultSpec(o.Faults, o.amd()); err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
	}
	return f(), nil
}
