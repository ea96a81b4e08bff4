package bgpwire

import (
	"bytes"
	"net/netip"
	"slices"
	"testing"

	"spooftrack/internal/topo"
)

// FuzzReadMessage exercises the BGP message parser: never panic, and
// an accepted message that re-encodes decodes back to equal values — for
// an UPDATE the same Prefixes and Withdrawn, and the same Path and
// NextHop when it announces anything (a withdraw-only UPDATE encodes no
// attributes).
func FuzzReadMessage(f *testing.F) {
	open, _ := MarshalOpen(&Open{AS: 4200000001, HoldTime: 90, BGPID: 7})
	f.Add(open)
	upd, _ := MarshalUpdate(&Update{
		Path:     []topo.ASN{47065},
		NextHop:  netip.MustParseAddr("203.0.113.1"),
		Prefixes: []netip.Prefix{netip.MustParsePrefix("198.51.100.0/24")},
	})
	f.Add(upd)
	f.Add(MarshalKeepalive())
	notif, _ := MarshalNotification(&Notification{Code: NotifCease})
	f.Add(notif)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 19))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var re []byte
		switch m := msg.(type) {
		case *Open:
			re, err = MarshalOpen(m)
		case *Update:
			re, err = MarshalUpdate(m)
		case *Notification:
			re, err = MarshalNotification(m)
		case Keepalive:
			re = MarshalKeepalive()
		}
		if err != nil {
			return // parsed but unencodable corner (e.g., empty path)
		}
		back, err := ReadMessage(bytes.NewReader(re))
		if err != nil {
			t.Fatalf("re-encoded message unparseable: %v", err)
		}
		if !equalMessages(msg, back) {
			t.Fatalf("message %+v re-encoded and decoded as %+v", msg, back)
		}
	})
}

func equalMessages(a, b any) bool {
	switch a := a.(type) {
	case *Open:
		return *a == *b.(*Open)
	case *Update:
		b := b.(*Update)
		return slices.Equal(a.Prefixes, b.Prefixes) && slices.Equal(a.Withdrawn, b.Withdrawn) &&
			(len(a.Prefixes) == 0 || slices.Equal(a.Path, b.Path) && a.NextHop == b.NextHop)
	case *Notification:
		b := b.(*Notification)
		return a.Code == b.Code && a.Subcode == b.Subcode && bytes.Equal(a.Data, b.Data)
	}
	return a == b
}
