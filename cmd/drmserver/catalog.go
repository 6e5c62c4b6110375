package main

import (
	"errors"
	"net/http"
	"sort"
	"sync"

	"repro/internal/catalog"
	"repro/internal/drmerr"
	"repro/internal/license"
	"repro/internal/slo"
)

// catalogServer is the multi-content mode: every catalog entry is served
// at /v1/c/{content}/{perm}/..., plus a listing endpoint. One RWMutex
// covers the whole catalog (entries share log files only per entry, but
// the simplicity is worth more than per-entry locking at this scale);
// read-only endpoints across different entries proceed concurrently.
type catalogServer struct {
	mu      sync.RWMutex
	cat     *catalog.Catalog
	workers int
	obs     *serverObs
}

func newCatalogServer(cat *catalog.Catalog, workers int) *catalogServer {
	s := &catalogServer{cat: cat, workers: workers}
	s.obs = newServerObs(func() error {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if s.cat.Len() == 0 {
			return errors.New("catalog empty")
		}
		return nil
	})
	s.obs.info = func() serviceStatus {
		s.mu.RLock()
		defer s.mu.RUnlock()
		st := serviceStatus{Name: "drmserver", Mode: s.cat.Mode().String(), Entries: s.cat.Len()}
		for _, e := range s.cat.Entries() {
			st.Licenses += e.Corpus.Len()
			st.Groups += e.Dist.NumGroups()
			st.LogRecords += e.Log.Len()
		}
		return st
	}
	s.obs.walBacklog = func() int64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		var total int64
		for _, e := range s.cat.Entries() {
			total += e.Log.Backlog()
		}
		return total
	}
	return s
}

func (s *catalogServer) routes() http.Handler {
	mux := http.NewServeMux()
	s.obs.mountCommon(mux)
	s.obs.mount(mux, "GET /v1/contents", s.handleContents)
	s.obs.mountCorpus(mux, "/v1/c/{content}/{perm}/", s.resolve)
	s.obs.mount(mux, "POST /v1/snapshot", s.handleSnapshotAll)
	return mux
}

// snapshotAllEntry is one entry's outcome in a catalog-wide snapshot.
type snapshotAllEntry struct {
	Content    string `json:"content"`
	Permission string `json:"permission"`
	Records    int    `json:"records"`
	Seq        uint64 `json:"seq"`
}

// handleSnapshotAll checkpoints every entry.
func (s *catalogServer) handleSnapshotAll(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	infos, err := s.cat.SnapshotAll()
	s.mu.RUnlock()
	if err != nil {
		writeError(r.Context(), w, err)
		return
	}
	out := struct {
		Entries []snapshotAllEntry `json:"entries"`
	}{Entries: []snapshotAllEntry{}}
	for e, info := range infos {
		out.Entries = append(out.Entries, snapshotAllEntry{
			Content:    e.Content,
			Permission: string(e.Permission),
			Records:    info.Records,
			Seq:        info.Seq,
		})
	}
	sort.Slice(out.Entries, func(i, j int) bool {
		if out.Entries[i].Content != out.Entries[j].Content {
			return out.Entries[i].Content < out.Entries[j].Content
		}
		return out.Entries[i].Permission < out.Entries[j].Permission
	})
	writeJSON(w, http.StatusOK, out)
}

// resolve maps the path's (content, perm) to its corpusAPI and entry
// window; an unknown pair is a typed 404 {error, kind}.
func (s *catalogServer) resolve(r *http.Request) (corpusAPI, *slo.Tracker, error) {
	content := r.PathValue("content")
	perm := license.Permission(r.PathValue("perm"))
	s.mu.RLock()
	e := s.cat.Get(content, perm)
	s.mu.RUnlock()
	if e == nil {
		return corpusAPI{}, nil, drmerr.New(drmerr.KindNotFound, "drmserver",
			"no corpus for (%s, %s)", content, perm)
	}
	api := corpusAPI{mu: &s.mu, corpus: e.Corpus, dist: e.Dist, workers: s.workers, wal: e.Log}
	return api, s.obs.slo.Entry(content + "/" + string(perm)), nil
}

type contentsBody struct {
	Contents []contentEntry `json:"contents"`
}

type contentEntry struct {
	Content    string `json:"content"`
	Permission string `json:"permission"`
	Licenses   int    `json:"licenses"`
	Groups     int    `json:"groups"`
	LogRecords int    `json:"log_records"`
}

func (s *catalogServer) handleContents(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	var body contentsBody
	for _, e := range s.cat.Entries() {
		body.Contents = append(body.Contents, contentEntry{
			Content:    e.Content,
			Permission: string(e.Permission),
			Licenses:   e.Corpus.Len(),
			Groups:     e.Dist.NumGroups(),
			LogRecords: e.Log.Len(),
		})
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, body)
}
