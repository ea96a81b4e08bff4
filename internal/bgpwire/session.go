package bgpwire

import (
	"fmt"
	"net"
	"sync"
	"time"

	"spooftrack/internal/topo"
)

// SessionState is the RFC 4271 §8 finite state machine position.
type SessionState int32

const (
	// StateIdle is the initial state.
	StateIdle SessionState = iota
	// StateOpenSent means our OPEN is out, awaiting the peer's.
	StateOpenSent
	// StateOpenConfirm means OPENs exchanged, awaiting KEEPALIVE.
	StateOpenConfirm
	// StateEstablished is a fully running session.
	StateEstablished
	// StateClosed is terminal.
	StateClosed
)

// String names the state.
func (s SessionState) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateOpenSent:
		return "OpenSent"
	case StateOpenConfirm:
		return "OpenConfirm"
	case StateEstablished:
		return "Established"
	case StateClosed:
		return "Closed"
	default:
		return fmt.Sprintf("SessionState(%d)", int32(s))
	}
}

// SessionConfig parameterizes a session endpoint.
type SessionConfig struct {
	// LocalAS and BGPID identify this speaker.
	LocalAS topo.ASN
	BGPID   uint32
	// HoldTime is the advertised hold time; keepalives go out at a
	// third of the negotiated value. Minimum 3s per RFC (tests use 3s).
	HoldTime time.Duration
}

// updateBuffer sizes a session's received-updates channel: room for a
// burst of announcements while the consumer is busy, since a full
// channel stops the session's reader until the consumer catches up.
const updateBuffer = 64

// Session is one established BGP session. Create with Dial (active
// side) or Accept (passive side).
type Session struct {
	conn    net.Conn
	cfg     SessionConfig
	peer    *Open
	updates chan *Update

	mu      sync.Mutex
	state   SessionState
	lastErr error
	closed  chan struct{}
	wg      sync.WaitGroup
}

// Dial opens a TCP connection to addr and runs the active-side handshake
// to Established.
func Dial(addr string, cfg SessionConfig) (*Session, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return handshake(conn, cfg)
}

// Accept runs the passive-side handshake on an accepted connection.
func Accept(conn net.Conn, cfg SessionConfig) (*Session, error) {
	return handshake(conn, cfg)
}

// handshake is symmetric: both sides send OPEN, expect OPEN, send
// KEEPALIVE, expect KEEPALIVE (RFC 4271's collision-free case).
func handshake(conn net.Conn, cfg SessionConfig) (*Session, error) {
	if cfg.HoldTime < 3*time.Second {
		cfg.HoldTime = 90 * time.Second
	}
	s := &Session{
		conn:    conn,
		cfg:     cfg,
		updates: make(chan *Update, updateBuffer),
		closed:  make(chan struct{}),
		state:   StateIdle,
	}
	deadline := time.Now().Add(cfg.HoldTime)
	_ = conn.SetDeadline(deadline)

	open, err := MarshalOpen(&Open{
		AS:       cfg.LocalAS,
		HoldTime: uint16(cfg.HoldTime / time.Second),
		BGPID:    cfg.BGPID,
	})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if _, err := conn.Write(open); err != nil {
		conn.Close()
		return nil, err
	}
	s.setState(StateOpenSent)

	msg, err := ReadMessage(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("bgpwire: awaiting OPEN: %w", err)
	}
	peer, ok := msg.(*Open)
	if !ok {
		s.notifyAndClose(NotifFSMError, 0)
		return nil, fmt.Errorf("bgpwire: expected OPEN, got %T", msg)
	}
	if peer.HoldTime == 1 || peer.HoldTime == 2 { // RFC 4271 §6.2: zero or at least three seconds
		s.notifyAndClose(NotifOpenError, subcodeBadHoldTime)
		return nil, fmt.Errorf("bgpwire: peer OPEN with unacceptable hold time %ds", peer.HoldTime)
	}
	if peer.HoldTime != 0 && time.Duration(peer.HoldTime)*time.Second < s.cfg.HoldTime {
		s.cfg.HoldTime = time.Duration(peer.HoldTime) * time.Second
	}
	s.peer = peer
	if _, err := conn.Write(MarshalKeepalive()); err != nil {
		conn.Close()
		return nil, err
	}
	s.setState(StateOpenConfirm)

	msg, err = ReadMessage(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("bgpwire: awaiting KEEPALIVE: %w", err)
	}
	if n, isNotif := msg.(*Notification); isNotif {
		conn.Close()
		return nil, n
	}
	if _, ok := msg.(Keepalive); !ok {
		s.notifyAndClose(NotifFSMError, 0)
		return nil, fmt.Errorf("bgpwire: expected KEEPALIVE, got %T", msg)
	}
	s.setState(StateEstablished)
	_ = conn.SetDeadline(time.Time{})

	s.wg.Add(2)
	go s.readLoop()
	go s.keepaliveLoop()
	return s, nil
}

// State returns the FSM position.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

func (s *Session) setState(st SessionState) {
	s.mu.Lock()
	s.state = st
	s.mu.Unlock()
}

// PeerAS returns the negotiated peer AS (four-octet capability applied).
func (s *Session) PeerAS() topo.ASN { return s.peer.AS }

// HoldTime returns the negotiated hold time.
func (s *Session) HoldTime() time.Duration { return s.cfg.HoldTime }

// Updates delivers received route announcements until the session ends.
func (s *Session) Updates() <-chan *Update { return s.updates }

// Announce sends an UPDATE.
func (s *Session) Announce(u *Update) error {
	if s.State() != StateEstablished {
		return fmt.Errorf("bgpwire: session not established")
	}
	data, err := MarshalUpdate(u)
	if err != nil {
		return err
	}
	_, err = s.conn.Write(data)
	return err
}

// Close terminates the session with a Cease notification.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.state == StateClosed {
		s.mu.Unlock()
		return nil
	}
	s.state = StateClosed
	s.mu.Unlock()
	s.notifyAndClose(NotifCease, 0)
	close(s.closed)
	s.wg.Wait()
	return nil
}

func (s *Session) notifyAndClose(code, subcode uint8) {
	if data, err := MarshalNotification(&Notification{Code: code, Subcode: subcode}); err == nil {
		_ = s.conn.SetWriteDeadline(time.Now().Add(time.Second))
		_, _ = s.conn.Write(data)
	}
	_ = s.conn.Close()
}

// fail records the terminating error and tears the session down.
func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.state == StateClosed {
		s.mu.Unlock()
		return
	}
	s.state = StateClosed
	s.lastErr = err
	s.mu.Unlock()
	_ = s.conn.Close()
	close(s.closed)
}

func (s *Session) readLoop() {
	defer s.wg.Done()
	defer close(s.updates)
	for {
		// The hold timer: no message within HoldTime kills the session.
		_ = s.conn.SetReadDeadline(time.Now().Add(s.cfg.HoldTime))
		msg, err := ReadMessage(s.conn)
		if err != nil {
			s.fail(err)
			return
		}
		switch m := msg.(type) {
		case *Update:
			select {
			case s.updates <- m:
			case <-s.closed:
				return
			}
		case Keepalive:
			// Refreshes the hold timer implicitly.
		case *Notification:
			s.fail(m)
			return
		default:
			s.fail(fmt.Errorf("bgpwire: unexpected %T in established state", msg))
			return
		}
	}
}

func (s *Session) keepaliveLoop() {
	defer s.wg.Done()
	interval := s.cfg.HoldTime / 3
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if s.State() != StateEstablished {
				return
			}
			if _, err := s.conn.Write(MarshalKeepalive()); err != nil {
				s.fail(err)
				return
			}
		case <-s.closed:
			return
		}
	}
}
