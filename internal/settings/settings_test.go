package settings

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestDefaultsAreUserMode(t *testing.T) {
	s := Defaults()
	if s.State != StateUser {
		t.Fatalf("default state = %q, want user (opt-in)", s.State)
	}
}

func TestStateValidity(t *testing.T) {
	for _, s := range []State{StateActive, StateUser, StateDeactivated} {
		if !s.Valid() {
			t.Errorf("%q should be valid", s)
		}
	}
	if State("turbo").Valid() {
		t.Error("unknown state valid")
	}
}

func TestEtcStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "etc", "chronus", "settings.json")
	st := NewEtcStore(path)

	// First load: no file yet → defaults.
	s, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if s.State != StateUser {
		t.Fatalf("fresh load state = %q", s.State)
	}

	s.DatabasePath = "/var/lib/chronus/db"
	s.BlobStoragePath = "/var/lib/chronus/blobs"
	s.State = StateActive
	s.SetModel(LocalModel{ModelID: 3, SystemID: 7, Optimizer: "linear-regression", Path: "/opt/chronus/optimizer"})
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}

	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.DatabasePath != s.DatabasePath || got.State != StateActive {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	m, ok := got.FindModel(7)
	if !ok || m.ModelID != 3 || m.Optimizer != "linear-regression" {
		t.Fatalf("model registry lost: %+v", got.LocalModels)
	}
}

func TestSaveRejectsInvalidState(t *testing.T) {
	st := NewEtcStore(filepath.Join(t.TempDir(), "settings.json"))
	if err := st.Save(Settings{State: "bogus"}); err == nil {
		t.Fatal("invalid state saved")
	}
	if NewMemStore().Save(Settings{State: "bogus"}) == nil {
		t.Fatal("invalid state saved to MemStore")
	}
}

func TestLoadRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "settings.json")
	os.WriteFile(path, []byte("{not json"), 0o644)
	if _, err := NewEtcStore(path).Load(); err == nil {
		t.Fatal("corrupt settings accepted")
	}
	os.WriteFile(path, []byte(`{"state":"bogus"}`), 0o644)
	if _, err := NewEtcStore(path).Load(); err == nil {
		t.Fatal("invalid state accepted")
	}
}

func TestLoadFillsEmptyState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "settings.json")
	os.WriteFile(path, []byte(`{"database":"/db"}`), 0o644)
	s, err := NewEtcStore(path).Load()
	if err != nil {
		t.Fatal(err)
	}
	if s.State != StateUser {
		t.Fatalf("empty state filled with %q, want user", s.State)
	}
}

func TestSetModelReplacesPerSystemAndApp(t *testing.T) {
	var s Settings
	s.SetModel(LocalModel{ModelID: 1, SystemID: 5, AppHash: "hpcg"})
	s.SetModel(LocalModel{ModelID: 2, SystemID: 5, AppHash: "hpcg"})
	s.SetModel(LocalModel{ModelID: 3, SystemID: 5, AppHash: "stream"})
	s.SetModel(LocalModel{ModelID: 4, SystemID: 6, AppHash: "hpcg"})
	if len(s.LocalModels) != 3 {
		t.Fatalf("LocalModels = %+v", s.LocalModels)
	}
	m, _ := s.FindModel(5)
	if m.ModelID != 2 {
		t.Fatalf("system 5 first model = %d, want 2 (replaced)", m.ModelID)
	}
	if _, ok := s.FindModel(99); ok {
		t.Fatal("FindModel(99) found something")
	}
}

func TestFindModelByHashPerApp(t *testing.T) {
	var s Settings
	s.SetModel(LocalModel{ModelID: 1, SystemID: 5, SystemHash: "sys", AppHash: "hpcg"})
	s.SetModel(LocalModel{ModelID: 2, SystemID: 5, SystemHash: "sys", AppHash: "stream"})
	m, ok := s.FindModelByHash("sys", "stream")
	if !ok || m.ModelID != 2 {
		t.Fatalf("stream lookup = %+v %v", m, ok)
	}
	if _, ok := s.FindModelByHash("sys", "lammps"); ok {
		t.Fatal("unknown app matched")
	}
	// Empty app hash matches the first model for the system.
	if m, ok := s.FindModelByHash("sys", ""); !ok || m.ModelID != 1 {
		t.Fatalf("wildcard lookup = %+v %v", m, ok)
	}
}

func TestSavedFileIsReadableJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "settings.json")
	st := NewEtcStore(path)
	s := Defaults()
	s.DatabasePath = "/db"
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"database": "/db"`) {
		t.Fatalf("settings file not human-readable JSON:\n%s", data)
	}
	if !strings.HasSuffix(string(data), "\n") {
		t.Fatal("settings file missing trailing newline")
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	m := NewMemStore()
	s, err := m.Load()
	if err != nil || s.State != StateUser {
		t.Fatalf("fresh MemStore load: %+v, %v", s, err)
	}
	s.State = StateDeactivated
	if err := m.Save(s); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Load()
	if got.State != StateDeactivated {
		t.Fatalf("MemStore lost state: %+v", got)
	}
}

// Load memoizes only the parse: a rewrite made directly on disk, as
// `chronus set` or `chronus load-model` in another process makes it,
// is seen by the next Load even when the file keeps its length.
func TestEtcStoreLoadSeesExternalSameLengthRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "settings.json")
	st := NewEtcStore(path)
	s := Defaults()
	s.SetModel(LocalModel{ModelID: 1, SystemID: 7, SystemHash: "111", Path: "/opt/chronus/optimizer/model-1.json"})
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(); err != nil { // warm the memo
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rewrite := func(old, new string) []byte {
		t.Helper()
		data := []byte(strings.Replace(string(before), old, new, 1))
		if len(data) != len(before) || string(data) == string(before) {
			t.Fatalf("rewrite %q→%q is not a same-length change", old, new)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return data
	}

	rewrite("model-1.json", "model-2.json")
	got, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := got.FindModel(7); !ok || m.Path != "/opt/chronus/optimizer/model-2.json" {
		t.Fatalf("Load after an on-disk rewrite returned %+v, want the model-2 path", got.LocalModels)
	}

	rewrite(`"state": "user"`, `"state": "nope"`)
	if _, err := st.Load(); err == nil {
		t.Fatal("Load after an on-disk rewrite to an invalid state returned the memoized settings")
	}
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := got.FindModel(7); !ok || m.Path != "/opt/chronus/optimizer/model-1.json" {
		t.Fatalf("Load after restoring the file returned %+v, want the model-1 path", got.LocalModels)
	}
}

// A caller editing the model registry of a loaded Settings (SetModel
// replaces in place) must not change what the next Load returns.
func TestEtcStoreLoadReturnsCallerOwnedModels(t *testing.T) {
	st := NewEtcStore(filepath.Join(t.TempDir(), "settings.json"))
	s := Defaults()
	s.SetModel(LocalModel{ModelID: 1, SystemID: 7, Path: "/opt/chronus/optimizer/model-1.json"})
	if err := st.Save(s); err != nil {
		t.Fatal(err)
	}
	first, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	first.SetModel(LocalModel{ModelID: 9, SystemID: 7, Path: "/tmp/poison.json"})
	first.SetModel(LocalModel{ModelID: 10, SystemID: 8, Path: "/tmp/extra.json"})
	next, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(next.LocalModels) != 1 || next.LocalModels[0].ModelID != 1 {
		t.Fatalf("Load after a caller's SetModel returned %+v, want the saved model 1 only", next.LocalModels)
	}
}

// Concurrent loads share the parse memo while a writer saves; run
// with -race.
func TestEtcStoreConcurrentLoadAndSave(t *testing.T) {
	st := NewEtcStore(filepath.Join(t.TempDir(), "settings.json"))
	if err := st.Save(Defaults()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s, err := st.Load()
				if err != nil {
					t.Error(err)
					return
				}
				s.SetModel(LocalModel{ModelID: int64(i), SystemID: 1})
			}
		}()
	}
	for i := 0; i < 20; i++ {
		s := Defaults()
		s.SetModel(LocalModel{ModelID: int64(i), SystemID: 2})
		if err := st.Save(s); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	s, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.LocalModels) != 1 || s.LocalModels[0].ModelID != 19 {
		t.Fatalf("final Load returned %+v, want the last saved model 19", s.LocalModels)
	}
}
