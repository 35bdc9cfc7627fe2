package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"bioschedsim/internal/online"
	"bioschedsim/internal/sched"
)

// submitRequest accepts either a batch ({"cloudlets": [...]}) or a single
// cloudlet's fields at the top level.
type submitRequest struct {
	Cloudlets []CloudletSpec `json:"cloudlets"`
	CloudletSpec
}

// submitResponse acknowledges accepted work with the assigned ids.
type submitResponse struct {
	IDs      []int  `json:"ids"`
	Accepted int    `json:"accepted"`
	Batch    string `json:"-"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// maxSubmitBytes bounds a submit body. It leaves ~256 bytes per spec for a
// request of DefaultQueueCap cloudlets, several times a spec's wire size
// with every field set; a larger body is refused with 413 before decoding.
const maxSubmitBytes = 1 << 20

// Handler returns the daemon's HTTP API:
//
//	POST /v1/submit       accept one cloudlet or a batch (202, 400, 413, 429, 503)
//	GET  /v1/status/{id}  one cloudlet's lifecycle record (200, 404)
//	GET  /v1/schedulers   registered batch schedulers and online policies
//	GET  /healthz         200 while accepting, 503 while draining
//	GET  /metrics         Prometheus text exposition
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", s.handleSubmit)
	mux.HandleFunc("GET /v1/status/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/schedulers", s.handleSchedulers)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// decodeSubmit parses a submit body into the cloudlet specs it carries,
// accepting either form documented on submitRequest. It is the fuzzed
// boundary between untrusted bytes and the typed Submit path
// (FuzzDecodeSubmit), so every rejection must come back as an error — never
// a panic.
func decodeSubmit(r io.Reader) ([]CloudletSpec, error) {
	var req submitRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("malformed request: %w", err)
	}
	specs := req.Cloudlets
	if len(specs) == 0 {
		if req.CloudletSpec == (CloudletSpec{}) {
			return nil, errors.New("empty submission: provide cloudlet fields or a non-empty \"cloudlets\" array")
		}
		specs = []CloudletSpec{req.CloudletSpec}
	}
	return specs, nil
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	specs, err := decodeSubmit(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		code := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, errorResponse{Error: err.Error()})
		return
	}
	ids, err := s.Submit(specs)
	switch {
	case errors.Is(err, ErrTooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{Error: err.Error()})
		return
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error()})
		return
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{IDs: ids, Accepted: len(ids)})
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad cloudlet id %q", r.PathValue("id"))})
		return
	}
	rec, ok := s.Status(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("unknown cloudlet %d", id)})
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

func (s *Service) handleSchedulers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"active": s.cfg.Scheduler,
		"batch":  sched.Names(),
		"online": online.PolicyNames(),
	})
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.Accepting() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.WriteMetrics(w)
}
