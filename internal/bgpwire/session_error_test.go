package bgpwire

import (
	"net"
	"testing"
	"time"
)

func TestDialRejectsNonBGPServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = conn.Write([]byte("HTTP/1.1 200 OK\r\n\r\n"))
		conn.Close()
	}()
	if _, err := Dial(ln.Addr().String(), SessionConfig{LocalAS: 1, BGPID: 1, HoldTime: 3 * time.Second}); err == nil {
		t.Fatal("session established against a non-BGP server")
	}
}

func TestDialRefusedConnection(t *testing.T) {
	// A listener that is immediately closed: connection refused or reset.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Dial(addr, SessionConfig{LocalAS: 1, BGPID: 1, HoldTime: 3 * time.Second}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestHoldTimeNegotiationTakesMinimum(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan *Session, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- nil
			return
		}
		s, err := Accept(conn, SessionConfig{LocalAS: 2, BGPID: 2, HoldTime: 3 * time.Second})
		if err != nil {
			done <- nil
			return
		}
		done <- s
	}()
	active, err := Dial(ln.Addr().String(), SessionConfig{LocalAS: 1, BGPID: 1, HoldTime: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer active.Close()
	passive := <-done
	if passive == nil {
		t.Fatal("passive side failed")
	}
	defer passive.Close()
	// Both sides must run at the smaller advertised hold time.
	if active.HoldTime() != 3*time.Second {
		t.Fatalf("active hold time %v, want 3s", active.HoldTime())
	}
	if passive.HoldTime() != 3*time.Second {
		t.Fatalf("passive hold time %v, want 3s", passive.HoldTime())
	}
}

func TestSessionStateString(t *testing.T) {
	for st, want := range map[SessionState]string{
		StateIdle: "Idle", StateOpenSent: "OpenSent", StateOpenConfirm: "OpenConfirm",
		StateEstablished: "Established", StateClosed: "Closed",
	} {
		if st.String() != want {
			t.Fatalf("%d renders %q", st, st.String())
		}
	}
	if SessionState(99).String() == "" {
		t.Fatal("unknown state should render")
	}
}

func TestAcceptGarbageHandshake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	errCh := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errCh <- err
			return
		}
		_, err = Accept(conn, SessionConfig{LocalAS: 2, BGPID: 2, HoldTime: 3 * time.Second})
		errCh <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = conn.Write([]byte("garbage garbage garbage garbage"))
	conn.Close()
	if err := <-errCh; err == nil {
		t.Fatal("garbage handshake accepted")
	}
}

// TestAcceptRefusesShortHoldTime: a peer OPEN with a hold time of 1 s
// gets an OPEN Message Error NOTIFICATION (Unacceptable Hold Time) after
// our OPEN, and no session.
func TestAcceptRefusesShortHoldTime(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	errCh := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			errCh <- err
			return
		}
		s, err := Accept(conn, SessionConfig{LocalAS: 2, BGPID: 2, HoldTime: 3 * time.Second})
		if err == nil {
			s.Close()
		}
		errCh <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	open, err := MarshalOpen(&Open{AS: 1, HoldTime: 1, BGPID: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(open); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("OPEN with a 1 s hold time accepted")
	}
	if msg, err := ReadMessage(conn); err != nil {
		t.Fatalf("reading the speaker's OPEN: %v", err)
	} else if _, ok := msg.(*Open); !ok {
		t.Fatalf("first message %T, want *Open", msg)
	}
	msg, err := ReadMessage(conn)
	if err != nil {
		t.Fatalf("reading the NOTIFICATION: %v", err)
	}
	if n, ok := msg.(*Notification); !ok || n.Code != NotifOpenError || n.Subcode != subcodeBadHoldTime {
		t.Fatalf("got %+v, want NOTIFICATION %d/%d", msg, NotifOpenError, subcodeBadHoldTime)
	}
}
