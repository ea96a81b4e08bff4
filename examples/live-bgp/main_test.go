package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestLiveBGPConverges(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var out bytes.Buffer
	if err := run(ctx, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if want := "all configurations announced and withdrawn over live BGP"; !strings.Contains(out.String(), want) {
		t.Fatalf("output lacks %q:\n%s", want, out.String())
	}
}
