package service

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"

	"dynspread/internal/store"
)

// The debug plane: on-demand pprof capture. POST /v1/debug/profile captures
// a profile of the LIVE daemon — a CPU window while a sweep is running, or a
// heap snapshot after one — and writes the blob into the profile store
// (store.PutProfile), where it survives restarts beside the result segments.
// GET /v1/debug/profiles lists what has been captured; /{id} downloads one
// blob, ready for `go tool pprof`. All three endpoints answer 503 when the
// daemon has no store configured: a profile that vanishes with the response
// body is not worth the capture pause.

const (
	defaultProfileSeconds = 5
	// maxProfileSeconds caps ?seconds= so one request cannot pin the
	// single CPU-profiling slot (and its 409s for everyone else) for hours.
	maxProfileSeconds = 120
)

// handleProfileCapture serves POST /v1/debug/profile?kind=cpu|heap.
// kind=cpu (the default) profiles for ?seconds=N wall seconds (default 5,
// capped at 120); the runtime supports one CPU profile at a time, so a
// second concurrent capture answers 409. kind=heap snapshots live
// allocations after a forced GC and returns immediately. The response is
// the stored blob's descriptor (store.ProfileInfo).
func (s *Server) handleProfileCapture(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusServiceUnavailable, errProfilesDisabled)
		return
	}
	kind := r.URL.Query().Get("kind")
	if kind == "" {
		kind = "cpu"
	}
	var buf bytes.Buffer
	switch kind {
	case "cpu":
		seconds := defaultProfileSeconds
		if sp := r.URL.Query().Get("seconds"); sp != "" {
			n, err := strconv.Atoi(sp)
			if err != nil || n < 1 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("service: invalid profile seconds %q", sp))
				return
			}
			seconds = n
		}
		if seconds > maxProfileSeconds {
			seconds = maxProfileSeconds
		}
		if !s.profiling.CompareAndSwap(false, true) {
			writeError(w, http.StatusConflict, errors.New("service: a CPU profile capture is already in progress"))
			return
		}
		err := func() error {
			defer s.profiling.Store(false)
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return err
			}
			defer pprof.StopCPUProfile()
			select {
			case <-time.After(time.Duration(seconds) * time.Second):
			case <-r.Context().Done():
				// Client gone mid-window: stop early but still store what was
				// captured — the profile was the point, not the response.
			case <-s.ctx.Done():
				// Shutting down; a short profile beats a wedged drain.
			}
			return nil
		}()
		if err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("service: %w", err))
			return
		}
	case "heap":
		// Collect first so the snapshot shows what is LIVE now, not garbage
		// awaiting the next cycle — the question a heap profile answers here
		// is "is the zero-alloc discipline holding?".
		runtime.GC()
		if err := pprof.WriteHeapProfile(&buf); err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("service: %w", err))
			return
		}
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: unknown profile kind %q (want cpu or heap)", kind))
		return
	}
	info, err := s.cfg.Store.PutProfile(kind, buf.Bytes())
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

var errProfilesDisabled = errors.New("service: no profile store configured (run spreadd with -store)")

// ProfileList is the body of GET /v1/debug/profiles.
type ProfileList struct {
	Profiles []store.ProfileInfo `json:"profiles"`
}

func (s *Server) handleProfiles(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusServiceUnavailable, errProfilesDisabled)
		return
	}
	infos, err := s.cfg.Store.Profiles()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if infos == nil {
		infos = []store.ProfileInfo{}
	}
	writeJSON(w, http.StatusOK, ProfileList{Profiles: infos})
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusServiceUnavailable, errProfilesDisabled)
		return
	}
	id := r.PathValue("id")
	b, err := s.cfg.Store.ReadProfile(id)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown profile %q", id))
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(b) // a write error means the client went away; nothing to do
}
