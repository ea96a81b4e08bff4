package bgpwire

import (
	"bytes"
	"net"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"spooftrack/internal/topo"
)

func experimentPrefix() netip.Prefix {
	return netip.MustParsePrefix("198.51.100.0/24")
}

func TestOpenRoundTrip(t *testing.T) {
	o := &Open{AS: 4200000001, HoldTime: 90, BGPID: 0x0a000001}
	data, err := MarshalOpen(o)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := msg.(*Open)
	if !ok {
		t.Fatalf("got %T", msg)
	}
	// The 4-byte AS must survive via the capability even though the
	// 2-byte field saturates to AS_TRANS.
	if got.AS != o.AS || got.HoldTime != o.HoldTime || got.BGPID != o.BGPID {
		t.Fatalf("round trip %+v, want %+v", got, o)
	}
}

func TestOpenSmallASRoundTrip(t *testing.T) {
	o := &Open{AS: 47065, HoldTime: 30, BGPID: 1}
	data, err := MarshalOpen(o)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got := msg.(*Open); got.AS != 47065 {
		t.Fatalf("AS = %d", got.AS)
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	u := &Update{
		Path:     []topo.ASN{64500, 47065, 64501, 47065},
		NextHop:  netip.MustParseAddr("203.0.113.9"),
		Prefixes: []netip.Prefix{experimentPrefix()},
	}
	data, err := MarshalUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := ReadMessage(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got := msg.(*Update)
	if len(got.Path) != 4 || got.Path[0] != 64500 {
		t.Fatalf("path %v", got.Path)
	}
	if got.NextHop != u.NextHop || len(got.Prefixes) != 1 || got.Prefixes[0] != u.Prefixes[0] {
		t.Fatalf("update %+v", got)
	}
}

func TestUpdateWithdrawRoundTrip(t *testing.T) {
	u := &Update{Withdrawn: []netip.Prefix{experimentPrefix()}}
	data, err := MarshalUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	got := mustRead(t, data).(*Update)
	if len(got.Withdrawn) != 1 || got.Withdrawn[0] != experimentPrefix() {
		t.Fatalf("withdrawn %v", got.Withdrawn)
	}
	if len(got.Prefixes) != 0 {
		t.Fatal("unexpected announcements")
	}
}

func mustRead(t *testing.T, data []byte) any {
	t.Helper()
	msg, err := ReadMessage(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

func TestUpdatePathProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 || len(raw) > 200 {
			return true
		}
		path := make([]topo.ASN, len(raw))
		for i, v := range raw {
			path[i] = topo.ASN(v)
		}
		u := &Update{Path: path, NextHop: netip.MustParseAddr("203.0.113.1"),
			Prefixes: []netip.Prefix{experimentPrefix()}}
		data, err := MarshalUpdate(u)
		if err != nil {
			return false
		}
		msg, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return false
		}
		got := msg.(*Update)
		if len(got.Path) != len(path) {
			return false
		}
		for i := range path {
			if got.Path[i] != path[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNotificationAndKeepalive(t *testing.T) {
	n := &Notification{Code: NotifCease, Subcode: 2, Data: []byte("bye")}
	data, err := MarshalNotification(n)
	if err != nil {
		t.Fatal(err)
	}
	got := mustRead(t, data).(*Notification)
	if got.Code != NotifCease || got.Subcode != 2 || string(got.Data) != "bye" {
		t.Fatalf("notification %+v", got)
	}
	if got.Error() == "" {
		t.Fatal("notification must render as error")
	}
	if _, ok := mustRead(t, MarshalKeepalive()).(Keepalive); !ok {
		t.Fatal("keepalive round trip failed")
	}
}

func TestReadMessageRejectsGarbage(t *testing.T) {
	// Bad marker.
	data := MarshalKeepalive()
	data[0] = 0
	if _, err := ReadMessage(bytes.NewReader(data)); err == nil {
		t.Error("bad marker accepted")
	}
	// Bad length.
	data = MarshalKeepalive()
	data[16], data[17] = 0xff, 0xff
	if _, err := ReadMessage(bytes.NewReader(data)); err == nil {
		t.Error("bad length accepted")
	}
	// Unknown type.
	data = MarshalKeepalive()
	data[18] = 99
	if _, err := ReadMessage(bytes.NewReader(data)); err == nil {
		t.Error("unknown type accepted")
	}
}

// sessionPair establishes two connected sessions over loopback.
func sessionPair(t *testing.T) (*Session, *Session) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		s   *Session
		err error
	}
	ch := make(chan res, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			ch <- res{nil, err}
			return
		}
		s, err := Accept(conn, SessionConfig{LocalAS: 64501, BGPID: 2, HoldTime: 3 * time.Second})
		ch <- res{s, err}
	}()
	active, err := Dial(ln.Addr().String(), SessionConfig{LocalAS: 47065, BGPID: 1, HoldTime: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	passive := <-ch
	if passive.err != nil {
		t.Fatal(passive.err)
	}
	t.Cleanup(func() {
		active.Close()
		passive.s.Close()
	})
	return active, passive.s
}

func TestSessionHandshake(t *testing.T) {
	a, p := sessionPair(t)
	if a.State() != StateEstablished || p.State() != StateEstablished {
		t.Fatalf("states %v / %v", a.State(), p.State())
	}
	if a.PeerAS() != 64501 || p.PeerAS() != 47065 {
		t.Fatalf("peer ASes %d / %d", a.PeerAS(), p.PeerAS())
	}
	if a.HoldTime() != 3*time.Second {
		t.Fatalf("hold time %v", a.HoldTime())
	}
}

func TestSessionAnnounceDelivery(t *testing.T) {
	a, p := sessionPair(t)
	u := &Update{
		Path:     []topo.ASN{47065},
		NextHop:  netip.MustParseAddr("203.0.113.1"),
		Prefixes: []netip.Prefix{experimentPrefix()},
	}
	if err := a.Announce(u); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-p.Updates():
		if len(got.Path) != 1 || got.Path[0] != 47065 {
			t.Fatalf("received %+v", got)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("update not delivered")
	}
}

func TestSessionSurvivesKeepaliveWindow(t *testing.T) {
	a, p := sessionPair(t)
	// Longer than the hold time: keepalives must keep both sides alive.
	time.Sleep(3500 * time.Millisecond)
	if a.State() != StateEstablished || p.State() != StateEstablished {
		t.Fatalf("session died: %v / %v (err %v / %v)", a.State(), p.State(), a.Err(), p.Err())
	}
}

func TestSessionCloseDeliversCease(t *testing.T) {
	a, p := sessionPair(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if p.State() == StateClosed {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if p.State() != StateClosed {
		t.Fatal("peer did not observe close")
	}
	if n, ok := p.Err().(*Notification); !ok || n.Code != NotifCease {
		t.Fatalf("peer error %v, want Cease notification", p.Err())
	}
}

func TestAnnounceOnClosedSession(t *testing.T) {
	a, _ := sessionPair(t)
	a.Close()
	err := a.Announce(&Update{
		Path: []topo.ASN{1}, NextHop: netip.MustParseAddr("203.0.113.1"),
		Prefixes: []netip.Prefix{experimentPrefix()},
	})
	if err == nil {
		t.Fatal("announce on closed session succeeded")
	}
}

func TestRouteServerCollectsRoutes(t *testing.T) {
	rs, err := NewRouteServer("127.0.0.1:0", SessionConfig{LocalAS: 65000, BGPID: 9, HoldTime: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	sess, err := Dial(rs.Addr().String(), SessionConfig{LocalAS: 47065, BGPID: 1, HoldTime: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	u := &Update{
		Path:     []topo.ASN{47065, 64512, 47065}, // poison-wrapped path
		NextHop:  netip.MustParseAddr("203.0.113.1"),
		Prefixes: []netip.Prefix{experimentPrefix()},
	}
	if err := sess.Announce(u); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if len(rs.Routes(47065)) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	routes := rs.Routes(47065)
	path, ok := routes[experimentPrefix()]
	if !ok {
		t.Fatal("route not collected")
	}
	if len(path) != 3 || path[1] != 64512 {
		t.Fatalf("collected path %v", path)
	}
	// Withdrawal removes the route.
	if err := sess.Announce(&Update{Withdrawn: []netip.Prefix{experimentPrefix()}}); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if len(rs.Routes(47065)) == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(rs.Routes(47065)) != 0 {
		t.Fatal("withdrawal not applied")
	}
	// The withdrawing peer keeps its (now empty) RIB.
	rs.mu.Lock()
	_, known := rs.ribs[47065]
	peers := len(rs.ribs)
	rs.mu.Unlock()
	if !known || peers != 1 {
		t.Fatalf("route server tracks %d peers (47065 known: %v), want just 47065", peers, known)
	}
}
