package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

func TestSAVSurveyNeverWrongWhenConfident(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var out bytes.Buffer
	if err := run(ctx, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if want := "inferred BCP38 model:"; !strings.Contains(out.String(), want) {
		t.Fatalf("output lacks %q:\n%s", want, out.String())
	}
}
