"""Corpus data model, I/O and deterministic preprocessing transforms.

Input text is assumed pre-tokenized: tokens are whitespace-delimited and the
toolkit never re-tokenizes.  Factored corpora carry up to four factors per
token (``surface|lemma|pos|ne``); trailing factors may be omitted.
"""

import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .errors import FormatError, MissingFactorError, ToolkitError, read_lines, write_text

FACTOR_SEP = "|"
NUMBER_PLACEHOLDER = "@num@"
FACTOR_VIEWS = ("f", "fn", "l", "ln", "t", "tn")

_DIGIT_RUN = re.compile(r"[0-9]+")
# split point: U+002D between two non-hyphen characters
_HYPHEN_SPLIT = re.compile(r"(?<=[^-])-(?=[^-])")


@dataclass(frozen=True)
class Sentence:
    """One sentence as parallel factor streams.

    ``surface`` is a tuple of words.  ``lemma``, ``pos`` and ``ne`` hold one
    entry per token, None where that token lacks the factor, and are None
    themselves when no token carries the factor, so a factor-less factored
    line equals (and hashes like) the plain line.  The readers intern every
    token, so a loaded corpus holds one string object per type.
    """

    surface: tuple
    lemma: Optional[tuple] = None
    pos: Optional[tuple] = None
    ne: Optional[tuple] = None

    def __post_init__(self):
        if not self.surface:
            raise FormatError("sentences must contain at least one token")

    def __len__(self):
        return len(self.surface)

    @property
    def words(self):
        return list(self.surface)

    @property
    def text(self):
        return " ".join(self.surface)

    @classmethod
    def from_plain(cls, line):
        words = tuple(map(sys.intern, line.split()))
        if FACTOR_SEP in line:
            bad = next(w for w in words if FACTOR_SEP in w)
            raise FormatError(
                "token surface may not contain whitespace or %r: %r" % (FACTOR_SEP, bad)
            )
        return cls(words)

    @classmethod
    def from_factored(cls, line):
        columns = []
        for chunk in line.split():
            parts = list(map(sys.intern, chunk.split(FACTOR_SEP)))
            if len(parts) > 4:
                raise FormatError("too many factors in token %r" % chunk)
            if not parts[0]:
                raise FormatError("token surface must be non-empty")
            parts += [""] * (4 - len(parts))
            columns.append([p or None for p in parts])
        surface, *factors = zip(*columns) if columns else ((),)
        return cls(surface, *(f if any(f) else None for f in factors))

    def factored_text(self):
        # surfaces are non-empty and no factor holds a separator, so stripping
        # trailing separators drops exactly the omitted trailing factors
        n = len(self.surface)
        streams = [f or (None,) * n for f in (self.lemma, self.pos, self.ne)]
        return " ".join(
            FACTOR_SEP.join((w, l or "", p or "", e or "")).rstrip(FACTOR_SEP)
            for w, l, p, e in zip(self.surface, *streams)
        )


@dataclass(frozen=True)
class SentencePair:
    source: Sentence
    target: Sentence


@dataclass(frozen=True)
class Corpus:
    sentences: tuple
    id: str = ""

    def __len__(self):
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    @classmethod
    def from_lines(cls, lines, id=""):
        return cls(tuple(Sentence.from_plain(l) for l in lines), id=id)


@dataclass(frozen=True)
class ParallelCorpus:
    pairs: tuple
    id: str = ""

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def source_corpus(self):
        return Corpus(tuple(p.source for p in self.pairs), id=self.id + ".src")

    def target_corpus(self):
        return Corpus(tuple(p.target for p in self.pairs), id=self.id + ".tgt")


def words_of(item):
    """The words of a Sentence (its surface tuple), a whitespace-tokenized string or a token list."""
    if isinstance(item, Sentence):
        return item.surface
    if isinstance(item, str):
        return item.split()
    return list(item)


@dataclass(frozen=True)
class Lexicon:
    """Source word -> single target phrase; the first listed translation wins."""

    entries: dict = field(default_factory=dict)

    def lookup(self, word):
        return self.entries.get(word)

    @classmethod
    def load(cls, path):
        entries = {}
        for lineno, line in read_lines(path):
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) < 2:
                raise FormatError("%s line %d: lexicon line needs source<TAB>target: %r"
                                  % (path, lineno, line))
            src, tgt = fields[0], fields[1]
            if not src.strip() or not tgt.strip():
                raise FormatError("%s line %d: lexicon source and target must be non-empty: %r"
                                  % (path, lineno, line))
            if " " in src:
                raise FormatError("%s line %d: lexicon keys must be single tokens: %r"
                                  % (path, lineno, src))
            entries.setdefault(src, tgt)
        return cls(entries)


def read_documents(path):
    """(id, lines, where) for each document of a collection: a directory of
    UTF-8 files (file name = id) or a TSV of `doc_id<TAB>text` lines, whose ids
    must differ.  lines are (line number, line) pairs: a file's read_lines, or
    the TSV row's one line.  `where` names the file, and for a TSV row its line."""
    path = Path(path)
    if path.is_dir():
        return [(child.name, read_lines(child), str(child))
                for child in sorted(path.iterdir()) if child.is_file()]
    docs, first_line = [], {}
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        fields = line.split("\t", 1)
        if len(fields) != 2:
            raise FormatError("%s line %d: expected doc_id<TAB>text" % (path, lineno))
        if fields[0] in first_line:
            raise FormatError("%s line %d: duplicate document id %r (first on line %d)"
                              % (path, lineno, fields[0], first_line[fields[0]]))
        first_line[fields[0]] = lineno
        docs.append((fields[0], [(lineno, fields[1])], "%s line %d" % (path, lineno)))
    return docs


def _parse_lines(parse, path):
    """parse(line) for each line of a corpus file, which may hold no blank
    line; an error names the file and the line."""
    items = []
    for lineno, line in read_lines(path):
        if not line.strip():
            raise FormatError("%s line %d: empty line" % (path, lineno))
        try:
            items.append(parse(line))
        except FormatError as exc:
            raise FormatError("%s line %d: %s" % (path, lineno, exc)) from None
    return tuple(items)


def _pair(line):
    fields = line.split("\t")
    if len(fields) != 2:
        raise FormatError("expected source<TAB>target")
    return SentencePair(Sentence.from_plain(fields[0]), Sentence.from_plain(fields[1]))


_PARSERS = {"plain": Sentence.from_plain, "factored": Sentence.from_factored,
            "tsv-parallel": _pair}


def load_corpus(path, format="plain"):
    """Load a corpus file.

    format: 'plain' (one sentence per line), 'factored'
    (``surface|lemma|pos|ne`` tokens) or 'tsv-parallel'
    (``source<TAB>target``).  Two-file parallel input goes through
    :func:`load_parallel`.  The corpus id is the file name.
    """
    if format not in _PARSERS:
        raise FormatError("unknown corpus format %r" % format)
    items = _parse_lines(_PARSERS[format], path)
    return (ParallelCorpus if format == "tsv-parallel" else Corpus)(items, id=Path(path).name)


def load_parallel(source_path, target_path, format="plain"):
    """Load a two-file parallel corpus; the files must have equal line counts.
    The corpus id is the two file names."""
    parse = Sentence.from_factored if format == "factored" else Sentence.from_plain
    src = _parse_lines(parse, source_path)
    tgt = _parse_lines(parse, target_path)
    if len(src) != len(tgt):
        raise FormatError("line-count mismatch: %s has %d lines, %s has %d"
                          % (source_path, len(src), target_path, len(tgt)))
    return ParallelCorpus(tuple(map(SentencePair, src, tgt)),
                          id="%s-%s" % (Path(source_path).name, Path(target_path).name))


def save_corpus(corpus, path, format="plain"):
    render = (lambda s: s.factored_text()) if format == "factored" else (lambda s: s.text)
    write_text(path, "".join(render(s) + "\n" for s in corpus.sentences))


def save_parallel(corpus, path):
    write_text(path, "".join(p.source.text + "\t" + p.target.text + "\n" for p in corpus.pairs))


def dedup(corpus):
    """Keep the first occurrence of each distinct sentence (or pair)."""
    return type(corpus)(tuple(dict.fromkeys(corpus)), id=corpus.id)


def length_filter(corpus, max_len=80):
    """Drop pairs where either side exceeds max_len tokens (strictly)."""
    if max_len < 1:
        raise ToolkitError("max_len must be >= 1")
    kept = tuple(
        p for p in corpus.pairs if len(p.source) <= max_len and len(p.target) <= max_len
    )
    return ParallelCorpus(kept, id=corpus.id)


def normalize_numbers(sentence):
    """Replace every maximal ASCII digit run with the @num@ placeholder."""
    return replace(sentence, surface=tuple(
        _DIGIT_RUN.sub(NUMBER_PLACEHOLDER, w) for w in sentence.surface))


def normalize_apostrophes(sentence):
    """Replace U+2019 with the plain ASCII apostrophe U+0027."""
    return replace(sentence, surface=tuple(w.replace("’", "'") for w in sentence.surface))


def hyphen_alt_markup(sentence, lexicon):
    """Annotate hyphenated words whose parts are all translatable.

    A token with internal hyphens is split on them; when every part has a
    lexicon entry the token is wrapped as
    ``<alt trans="T1 ... Tk">original</alt>``, else emitted unchanged.
    Returns the annotated sentence as text.
    """
    out = []
    for w in sentence.surface:
        parts = _HYPHEN_SPLIT.split(w)
        if len(parts) > 1:
            translations = [lexicon.lookup(p) for p in parts]
            if all(tr is not None for tr in translations):
                out.append('<alt trans="%s">%s</alt>' % (" ".join(translations), w))
                continue
        out.append(w)
    return " ".join(out)


# view letter -> (stream attribute, factor name in error messages)
_VIEW_STREAMS = {"f": ("surface", "surface"), "l": ("lemma", "lemma"), "t": ("pos", "POS")}


def _project(sentence, view):
    attr, name = _VIEW_STREAMS[view[0]]
    stream = getattr(sentence, attr) or (None,) * len(sentence)
    if view.endswith("n") and sentence.ne is not None:
        stream = tuple(e or w for e, w in zip(sentence.ne, stream))
    if None in stream:
        raise MissingFactorError(
            "token %r has no %s factor" % (sentence.surface[stream.index(None)], name)
        )
    return Sentence(stream)


def factor_view(corpus, view):
    """Project a factored corpus onto one factor stream.

    Views: f (surface), l (lemma), t (POS tag); the *n variants substitute a
    token's NE category for its base projection whenever one is present.
    """
    if view not in FACTOR_VIEWS:
        raise MissingFactorError("unknown factor view %r" % view)
    if view.endswith("n") and not any(s.ne for s in corpus.sentences):
        raise MissingFactorError(
            "view %r requires NE factors but no token in %r carries one"
            % (view, corpus.id)
        )
    projected = tuple(_project(s, view) for s in corpus.sentences)
    return Corpus(projected, id="%s.%s" % (corpus.id, view))
