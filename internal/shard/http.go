package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"
)

// HTTP wire protocol for the multi-process deployment: the controller
// speaks JSON POST to each shard's /shard/collect, /shard/apply, and
// /shard/hello. Term fencing maps to 409 Conflict (not retryable);
// everything else — connection refused, 5xx, timeouts — is retryable
// and lands in the controller's backoff loop like an injected
// partition.

// NodeHandler serves a shard node's RPC surface on an http.ServeMux.
func NodeHandler(n *Node) http.Handler {
	mux := http.NewServeMux()
	rpc(mux, "/shard/collect", n.HandleCollect)
	rpc(mux, "/shard/apply", n.HandleApply)
	rpc(mux, "/shard/hello", n.HandleHello)
	return mux
}

// rpc registers one JSON POST endpoint: decode the request (bounded),
// handle it, and answer the response as JSON or the error as a status.
func rpc[Req, Resp any](mux *http.ServeMux, path string, handle func(Req) (Resp, error)) {
	mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Req
		if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := handle(req)
		if err != nil {
			code := http.StatusServiceUnavailable
			if errors.Is(err, ErrStaleTerm) {
				code = http.StatusConflict
			}
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			// The status line is already out; the controller sees a short
			// body, fails to decode it and retries.
			slog.Debug("shard rpc response not written", "path", path, "err", err)
		}
	})
}

// HTTPTransport is the controller's client side: shard ids map to base
// URLs, each RPC is one JSON POST with a per-call timeout.
type HTTPTransport struct {
	client *http.Client

	mu    sync.Mutex
	peers map[string]string // id -> base URL
}

// NewHTTPTransport builds an HTTP transport (timeout <= 0 means 5s).
func NewHTTPTransport(timeout time.Duration) *HTTPTransport {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	return &HTTPTransport{
		client: &http.Client{Timeout: timeout},
		peers:  make(map[string]string),
	}
}

// Register maps a shard id to its base URL (e.g. http://127.0.0.1:8181).
func (t *HTTPTransport) Register(id, baseURL string) {
	t.mu.Lock()
	t.peers[id] = baseURL
	t.mu.Unlock()
}

func (t *HTTPTransport) post(node, path string, req, resp any) error {
	t.mu.Lock()
	base := t.peers[node]
	t.mu.Unlock()
	if base == "" {
		return fmt.Errorf("%w: %s not registered", ErrUnavailable, node)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hr, err := t.client.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrUnavailable, node, err)
	}
	defer hr.Body.Close()
	if hr.StatusCode == http.StatusConflict {
		msg, _ := io.ReadAll(io.LimitReader(hr.Body, 4096))
		return fmt.Errorf("%w: %s: %s", ErrStaleTerm, node, bytes.TrimSpace(msg))
	}
	if hr.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hr.Body, 4096))
		return fmt.Errorf("%w: %s: http %d: %s", ErrUnavailable, node, hr.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(io.LimitReader(hr.Body, 64<<20)).Decode(resp)
}

// Collect implements Transport.
func (t *HTTPTransport) Collect(node string, req CollectRequest) (CollectResponse, error) {
	var resp CollectResponse
	err := t.post(node, "/shard/collect", req, &resp)
	return resp, err
}

// Apply implements Transport.
func (t *HTTPTransport) Apply(node string, u EpochUpdate) (ApplyResponse, error) {
	var resp ApplyResponse
	err := t.post(node, "/shard/apply", u, &resp)
	return resp, err
}

// Hello implements Transport.
func (t *HTTPTransport) Hello(node string, req HelloRequest) (HelloResponse, error) {
	var resp HelloResponse
	err := t.post(node, "/shard/hello", req, &resp)
	return resp, err
}
