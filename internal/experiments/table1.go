package experiments

import (
	"fmt"
	"strings"

	"spooftrack/internal/core"
)

// Table1Row is one PoP binding: the paper's mux/provider names and the
// synthetic provider AS standing in for it.
type Table1Row struct {
	Mux          string
	ProviderName string
	ProviderASN  uint32 // the real-world ASN from the paper's Table I
	BoundASN     uint32 // the synthetic topology AS bound to the mux
	Customers    int    // customer count of the bound provider
}

// Table1Result reproduces Table I against the built world.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 reads the platform bindings.
func Table1(camp *core.Campaign) *Table1Result {
	g := camp.World.Graph
	res := &Table1Result{}
	for _, m := range camp.World.Platform.Muxes() {
		res.Rows = append(res.Rows, Table1Row{
			Mux:          m.Spec.Name,
			ProviderName: m.Spec.ProviderName,
			ProviderASN:  uint32(m.Spec.ProviderASN),
			BoundASN:     uint32(g.ASN(m.Provider)),
			Customers:    g.NumCustomers(m.Provider),
		})
	}
	return res
}

// String renders the table.
func (r *Table1Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table I: PoPs and providers of the PEERING platform\n")
	fmt.Fprintf(&sb, "  %-11s %-26s %-10s %-10s %s\n", "Mux", "Transit Provider", "Paper ASN", "Sim ASN", "Customers")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-11s %-26s AS%-8d AS%-8d %d\n",
			row.Mux, row.ProviderName, row.ProviderASN, row.BoundASN, row.Customers)
	}
	return sb.String()
}
