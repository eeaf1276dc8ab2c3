// Two crashes: the program runs in three phases with a crash after each
// of the first two. Phase 0 leaves y and z unflushed. Phase 1 copies
// what survived into v and w but flushes only w. Phase 2 reads both
// after the second crash: seeing w's copy without v's is not a
// strictly-persistent outcome. Model checking crashes inside both
// pre-crash phases, so its decision tree holds snapshots at two depths.
phase {
  thread 0 {
    x = 1;
    y = 2;
    flush x;
    sfence;
    z = 3;
    // missing: flush y; flush z; sfence;
  }
}
phase {
  thread 0 {
    let a = load(y);
    let b = load(z);
    v = a + 1;
    w = b + 1;
    // missing: flushopt v;
    flushopt w;
    sfence;
  }
}
phase {
  thread 0 {
    let d = load(w);
    let c = load(v);
  }
}
