package obs

import (
	"bytes"
	"errors"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixed is a deterministic clock for log assertions.
func fixed() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }

// TestLoggerFormat pins the line grammar: fixed ts/level/msg prefix,
// fields in call order, values quoted only when the key=value grammar
// needs it.
func TestLoggerFormat(t *testing.T) {
	var buf bytes.Buffer
	l := newLogger(&buf, slog.LevelDebug, fixed)
	l.Info("campaign accepted", "req", "r-4f1d22ab09c3e857", "runs", 936,
		"label", "two words", "err", errors.New("boom: x=1"),
		"share", 0.25, "ok", true, "wait", 1500*time.Millisecond)

	want := `ts=2026-08-08T12:00:00Z level=info msg="campaign accepted" req=r-4f1d22ab09c3e857 runs=936 label="two words" err="boom: x=1" share=0.25 ok=true wait=1.5s` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("log line\n got %q\nwant %q", got, want)
	}
}

// TestLoggerLevels: records below the minimum are dropped, at or above
// pass, and the level name lands on the line.
func TestLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	l := newLogger(&buf, slog.LevelWarn, fixed)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2 (warn+error):\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "level=warn msg=w") || !strings.Contains(lines[1], "level=error msg=e") {
		t.Errorf("wrong lines passed the level gate:\n%s", buf.String())
	}
}

// TestLoggerOneLinePerRecord: a message or value holding a newline or a
// carriage return is quoted, so the record stays one line and
// strconv.Unquote gives the text back.
func TestLoggerOneLinePerRecord(t *testing.T) {
	for _, v := range []string{"one\ntwo", "one\rtwo"} {
		var buf bytes.Buffer
		newLogger(&buf, slog.LevelInfo, fixed).Info(v, "err", errors.New(v))
		line, ok := strings.CutSuffix(buf.String(), "\n")
		if !ok || strings.ContainsAny(line, "\n\r") {
			t.Fatalf("record for %q is not one line: %q", v, buf.String())
		}
		rest, ok := strings.CutPrefix(line, "ts=2026-08-08T12:00:00Z level=info msg=")
		msg, val, _ := strings.Cut(rest, " err=")
		for what, quoted := range map[string]string{"msg": msg, "err": val} {
			if got, err := strconv.Unquote(quoted); !ok || err != nil || got != v {
				t.Errorf("%s=%s does not unquote to %q (got %q, %v)", what, quoted, v, got, err)
			}
		}
	}
}

// TestLoggerConcurrent: concurrent writers never interleave within a
// line (each line still parses as one record).
func TestLoggerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	l := newLogger(&buf, slog.LevelInfo, fixed)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Info("tick", "worker", n, "j", j)
			}
		}(i)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("%d lines, want 400", len(lines))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "ts=2026-08-08T12:00:00Z level=info msg=tick worker=") {
			t.Fatalf("torn log line: %q", line)
		}
	}
}
