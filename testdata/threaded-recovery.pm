// Two crashes with a two-threaded recovery phase between them. Phase 0
// flushes x only after storing y, so a crash between the two can
// persist y without x. In phase 1, thread 0
// copies what survived of y into v and thread 1 copies x into w; only
// w is flushed. Phase 2 reads both copies after the second crash.
// Phase 1's interleaving is drawn from the world's random source, so a
// model-check execution resumed from the first crash's snapshot must
// draw the same schedule as one replayed from the start: the source's
// position is part of the snapshot.
phase {
  thread 0 {
    x = 1;
    y = 2;
    flush x;
    sfence;
    // missing: flush y; sfence;
  }
}
phase {
  thread 0 {
    let a = load(y);
    v = a + 1;
    // missing: flushopt v;
    sfence;
  }
  thread 1 {
    let b = load(x);
    w = b + 1;
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
