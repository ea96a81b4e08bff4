package flowspec

import (
	"net/netip"
	"testing"
	"testing/quick"

	"spooftrack/internal/addr"
	"spooftrack/internal/topo"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func ip(s string) netip.Addr    { return netip.MustParseAddr(s) }

func sampleRule() Rule {
	return Rule{
		DstPrefix:       pfx("198.51.100.0/24"),
		SrcPrefix:       pfx("16.0.32.0/20"),
		Protos:          []uint8{17},
		DstPorts:        []uint16{123, 11211},
		SrcPorts:        []uint16{53},
		RateBytesPerSec: 0,
	}
}

func TestRuleMatches(t *testing.T) {
	r := sampleRule()
	match := Packet{Src: ip("16.0.32.9"), Dst: ip("198.51.100.1"), Proto: 17, SrcPort: 53, DstPort: 123}
	if !r.Matches(match) {
		t.Fatal("matching packet rejected")
	}
	cases := []Packet{
		{Src: ip("16.0.48.9"), Dst: ip("198.51.100.1"), Proto: 17, SrcPort: 53, DstPort: 123},  // wrong src
		{Src: ip("16.0.32.9"), Dst: ip("203.0.113.1"), Proto: 17, SrcPort: 53, DstPort: 123},   // wrong dst
		{Src: ip("16.0.32.9"), Dst: ip("198.51.100.1"), Proto: 6, SrcPort: 53, DstPort: 123},   // wrong proto
		{Src: ip("16.0.32.9"), Dst: ip("198.51.100.1"), Proto: 17, SrcPort: 53, DstPort: 80},   // wrong dport
		{Src: ip("16.0.32.9"), Dst: ip("198.51.100.1"), Proto: 17, SrcPort: 999, DstPort: 123}, // wrong sport
	}
	for i, p := range cases {
		if r.Matches(p) {
			t.Errorf("case %d: non-matching packet accepted", i)
		}
	}
}

func TestRuleZeroFieldsMatchAnything(t *testing.T) {
	r := Rule{SrcPrefix: pfx("16.0.0.0/8")}
	if !r.Matches(Packet{Src: ip("16.1.2.3"), Dst: ip("1.2.3.4"), Proto: 6, DstPort: 80}) {
		t.Fatal("wildcard fields should match")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	r := sampleRule()
	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.DstPrefix != r.DstPrefix || got.SrcPrefix != r.SrcPrefix {
		t.Fatalf("prefixes lost: %+v", got)
	}
	if len(got.Protos) != 1 || got.Protos[0] != 17 {
		t.Fatalf("protos lost: %v", got.Protos)
	}
	if len(got.DstPorts) != 2 || got.DstPorts[0] != 123 || got.DstPorts[1] != 11211 {
		t.Fatalf("dports lost: %v", got.DstPorts)
	}
	if len(got.SrcPorts) != 1 || got.SrcPorts[0] != 53 {
		t.Fatalf("sports lost: %v", got.SrcPorts)
	}
	if got.RateBytesPerSec != 0 {
		t.Fatalf("rate lost: %v", got.RateBytesPerSec)
	}
}

func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(srcOct [4]byte, bits uint8, proto uint8, port uint16, rate float32) bool {
		r := Rule{
			SrcPrefix:       netip.PrefixFrom(netip.AddrFrom4(srcOct), int(bits%33)),
			Protos:          []uint8{proto},
			DstPorts:        []uint16{port},
			RateBytesPerSec: rate,
		}
		// Mask the prefix so it round-trips canonically.
		r.SrcPrefix = r.SrcPrefix.Masked()
		data, err := r.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		return got.SrcPrefix == r.SrcPrefix &&
			got.Protos[0] == proto && got.DstPorts[0] == port &&
			(got.RateBytesPerSec == rate || (rate != rate && got.RateBytesPerSec != got.RateBytesPerSec))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalRejectsEmptyRule(t *testing.T) {
	r := Rule{}
	if _, err := r.Marshal(); err == nil {
		t.Fatal("match-everything rule accepted")
	}
	v6 := Rule{SrcPrefix: pfx("2001:db8::/48")}
	if _, err := v6.Marshal(); err == nil {
		t.Fatal("IPv6 rule accepted")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{5, 1, 2},                          // truncated
		{2, 99, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // unknown component
	}
	for i, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Corrupt the action community type.
	r := sampleRule()
	data, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-8] = 0x40
	if _, err := Unmarshal(data); err == nil {
		t.Error("bad action community accepted")
	}
}

func TestTableOrderingAndMatch(t *testing.T) {
	broad := Rule{SrcPrefix: pfx("16.0.0.0/8"), RateBytesPerSec: 1000}
	narrow := Rule{SrcPrefix: pfx("16.0.32.0/20"), RateBytesPerSec: 0}
	table := NewTable([]Rule{broad, narrow}) // broad first on purpose
	// The more specific source prefix must win.
	p := Packet{Src: ip("16.0.32.1"), Dst: ip("1.1.1.1")}
	got := table.Match(p)
	if got == nil || got.RateBytesPerSec != 0 {
		t.Fatalf("longest-prefix rule not preferred: %+v", got)
	}
	if !table.ShouldDrop(p) {
		t.Fatal("drop rule not applied")
	}
	other := Packet{Src: ip("16.9.9.9"), Dst: ip("1.1.1.1")}
	if table.ShouldDrop(other) {
		t.Fatal("rate-limited packet dropped")
	}
	if table.Match(Packet{Src: ip("99.9.9.9")}) != nil {
		t.Fatal("unmatched packet matched")
	}
	if len(table.rules) != 2 {
		t.Fatal("table size wrong")
	}
}

func TestDropRulesForSources(t *testing.T) {
	p := topo.DefaultGenParams(91)
	p.NumASes = 300
	g, err := topo.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	space := addr.Allocate(g)
	protect := pfx("198.51.100.0/24")
	rules := DropRulesForSources(space, []int{5, 9}, protect, 17, 11211)
	if len(rules) < 2 {
		t.Fatalf("got %d rules", len(rules))
	}
	// Every rule drops UDP:11211 from a candidate prefix toward the
	// protected prefix.
	for _, r := range rules {
		if r.RateBytesPerSec != 0 || r.DstPrefix != protect {
			t.Fatalf("bad rule %+v", r)
		}
		as, ok := space.ASOf(r.SrcPrefix.Addr())
		if !ok || (as != 5 && as != 9) {
			t.Fatalf("rule source %v not from a candidate", r.SrcPrefix)
		}
	}
	// Traffic from candidate 5 is dropped; from another AS it is not.
	table := NewTable(rules)
	if !table.ShouldDrop(Packet{Src: space.HostAddr(5, 0), Dst: ip("198.51.100.1"), Proto: 17, DstPort: 11211}) {
		t.Fatal("candidate traffic not dropped")
	}
	if table.ShouldDrop(Packet{Src: space.HostAddr(50, 0), Dst: ip("198.51.100.1"), Proto: 17, DstPort: 11211}) {
		t.Fatal("innocent traffic dropped")
	}
	// Same source, different service: untouched.
	if table.ShouldDrop(Packet{Src: space.HostAddr(5, 0), Dst: ip("198.51.100.1"), Proto: 17, DstPort: 53}) {
		t.Fatal("other service traffic dropped")
	}
}

func TestMarshalRulesRoundTrip(t *testing.T) {
	rules := []Rule{sampleRule(), {SrcPrefix: pfx("16.0.0.0/12"), RateBytesPerSec: 125000}}
	data, err := MarshalRules(rules)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalRules(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d rules", len(got))
	}
	if got[1].RateBytesPerSec != 125000 {
		t.Fatal("rate lost in stream")
	}
	if _, err := UnmarshalRules([]byte{9, 9}); err == nil {
		t.Fatal("garbage stream accepted")
	}
}
