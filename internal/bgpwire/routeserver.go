package bgpwire

import (
	"net"
	"net/netip"
	"sync"

	"spooftrack/internal/topo"
)

// RouteServer is a collector-style passive speaker: it accepts BGP
// sessions and records every announced route per peer, like a
// RouteViews collector does. It never announces anything itself.
type RouteServer struct {
	cfg      SessionConfig
	listener net.Listener
	wg       sync.WaitGroup

	mu     sync.Mutex
	ribs   map[topo.ASN]map[netip.Prefix][]topo.ASN // peer -> prefix -> AS path
	closed bool
}

// NewRouteServer starts a route server listening on addr
// (e.g., "127.0.0.1:0").
func NewRouteServer(addr string, cfg SessionConfig) (*RouteServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	rs := &RouteServer{
		cfg:      cfg,
		listener: ln,
		ribs:     make(map[topo.ASN]map[netip.Prefix][]topo.ASN),
	}
	rs.wg.Add(1)
	go rs.acceptLoop()
	return rs, nil
}

// Addr returns the listening address.
func (rs *RouteServer) Addr() net.Addr { return rs.listener.Addr() }

// Close stops accepting and waits for session handlers to finish.
func (rs *RouteServer) Close() error {
	rs.mu.Lock()
	rs.closed = true
	rs.mu.Unlock()
	err := rs.listener.Close()
	rs.wg.Wait()
	return err
}

func (rs *RouteServer) acceptLoop() {
	defer rs.wg.Done()
	for {
		conn, err := rs.listener.Accept()
		if err != nil {
			return
		}
		rs.wg.Add(1)
		go func() {
			defer rs.wg.Done()
			rs.handle(conn)
		}()
	}
}

func (rs *RouteServer) handle(conn net.Conn) {
	sess, err := Accept(conn, rs.cfg)
	if err != nil {
		return
	}
	defer sess.Close()
	peer := sess.PeerAS()
	for u := range sess.Updates() {
		rs.mu.Lock()
		rib, ok := rs.ribs[peer]
		if !ok {
			rib = make(map[netip.Prefix][]topo.ASN)
			rs.ribs[peer] = rib
		}
		for _, p := range u.Withdrawn {
			delete(rib, p)
		}
		if len(u.Prefixes) > 0 {
			for _, p := range u.Prefixes {
				rib[p] = append([]topo.ASN(nil), u.Path...)
			}
		}
		rs.mu.Unlock()
	}
}

// Routes returns a snapshot of the paths announced by the peer.
func (rs *RouteServer) Routes(peer topo.ASN) map[netip.Prefix][]topo.ASN {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make(map[netip.Prefix][]topo.ASN)
	for p, path := range rs.ribs[peer] {
		out[p] = append([]topo.ASN(nil), path...)
	}
	return out
}
