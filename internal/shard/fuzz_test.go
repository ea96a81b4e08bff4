package shard

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"spooftrack/internal/stream"
)

// FuzzNodeRPC posts arbitrary bodies to the three routes NodeHandler
// serves: every body is answered 200, 400, 409 or 503, and nothing
// panics. A term-0 hello follows each request, so the stored update a
// successful apply leaves behind is echoed back, and a term the request
// raised is fenced.
func FuzzNodeRPC(f *testing.F) {
	for _, seed := range []struct {
		route uint8
		body  string
	}{
		{0, `{"term":1,"epoch":0}`},
		{1, `{"term":1,"epoch":1,"config":2,"members":["s0"]}`},
		{1, `{"term":0,"epoch":1,"config":1,"members":["s0","s1"],"degraded":true}`},
		{1, `{"term":1,"epoch":1,"config":99}`},
		{1, `{"term":1,"epoch":-1,"config":0}`},
		{2, `{"term":3,"leader":"c1"}`},
		{0, `{"term":-1}`},
		{1, `{"config":"x"}`},
		{2, `not json`},
		{0, ``},
	} {
		f.Add(seed.route, []byte(seed.body))
	}
	paths := []string{"/shard/collect", "/shard/apply", "/shard/hello"}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		n, err := NewNode(NodeConfig{ID: "s0", Attr: chaosAttr(), Pipe: stream.Config{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		h := NodeHandler(n)
		for _, req := range []*http.Request{
			httptest.NewRequest(http.MethodPost, paths[int(route)%len(paths)], bytes.NewReader(body)),
			httptest.NewRequest(http.MethodPost, "/shard/hello", bytes.NewReader([]byte(`{"term":0}`))),
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusServiceUnavailable:
			default:
				t.Fatalf("%s answered %d: %s", req.URL.Path, rec.Code, rec.Body)
			}
		}
	})
}
