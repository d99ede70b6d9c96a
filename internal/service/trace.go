package service

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"

	"regsat/client"
	"regsat/internal/obs"
)

// handleTrace serves GET /v1/trace/{id}: the recorded spans of one trace as
// NDJSON, one obs.SpanData per line — exactly what cmd/rstrace reads. The
// backing ring is bounded, so a recorded trace eventually answers 404 once
// newer traces evict it.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans := s.tracer.Collect(obs.TraceID(id))
	if len(spans) == 0 {
		s.httpError(r.Context(), w, "unknown trace (never recorded, or evicted from the bounded ring)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		enc.Encode(sp)
	}
}

// httpError writes a JSON error payload {"error", "requestId"} so every
// failure — bad request, shed load, interrupted batch — carries the
// correlation ID the caller needs to find it in the daemon's logs. 5xx and
// shed responses are also logged (4xx request faults are the caller's
// bug, not the daemon's).
func (s *Server) httpError(ctx context.Context, w http.ResponseWriter, msg string, code int) {
	if code >= http.StatusInternalServerError || code == http.StatusTooManyRequests {
		s.log(ctx).Warn("request failed", "status", code, "err", msg)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Error     string `json:"error"`
		RequestID string `json:"requestId,omitempty"`
	}{Error: msg, RequestID: obs.RequestIDFromContext(ctx)})
}

// log returns the server's logger with the context's correlation and trace
// IDs attached, so every record of one request carries the same handles.
func (s *Server) log(ctx context.Context) *slog.Logger {
	lg := s.cfg.Logger
	if id := obs.RequestIDFromContext(ctx); id != "" {
		lg = lg.With("requestId", id)
	}
	if sp := obs.FromContext(ctx); sp != nil {
		lg = lg.With("traceId", string(sp.TraceID()), "spanId", string(sp.ID()))
	}
	return lg
}

// attachTrace finishes the root span and decorates the response with the
// trace ID (always, when recorded) and the inline span attachment (only
// when asked — forwarding coordinators use it to stitch). Ending the root
// here, before encoding, is what makes the attachment complete; the
// handler's deferred End is then a no-op.
func (s *Server) attachTrace(resp *client.AnalyzeResponse, root *obs.Span, wantSpans bool) {
	if root == nil {
		return
	}
	resp.TraceID = string(root.TraceID())
	if !wantSpans {
		return
	}
	root.End()
	resp.Spans = s.tracer.Collect(root.TraceID())
}
