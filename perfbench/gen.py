"""Seeded inputs for the benchmark workloads.

Everything here is derived from ``(workload, seed)`` alone: the same pair
always writes byte-identical files.  The program under test only ever sees
the corpus file, the registry overlay and the raw query strings; the expected
answer of every query comes from the construction rules below, never from
the package.

Construction rules shared by the identity corpora (``warm-lookup``,
``oneshot-cli``, ``http-fanout``):

* every subject has a unique ``Given Surname`` full name, one email that
  every collector can see (so all batches about one subject weld into one
  cluster), one phone and one to three social handles, all unique after
  canonicalization;
* about a third of the subjects own a personal domain: their email lives
  there and their ``url`` points at it.  Some of those domains are planted
  as string suffixes of another subject's domain (``mail.com`` /
  ``gmail.com``);
* about a third of the phones are stored in national format without ``+``
  (``098765 43210``).

So an identifier or full-name query matches exactly one subject, the report
has one candidate, and the winning cluster holds, for every routed collector,
each of the target's facts that collector can see.  Two known defects break
that rule on purpose (they are not generated around): a query for a planted
suffix domain also matches the other subject's URL (ROADMAP defect 3a), and a
national-format phone is never found by the same string (defect 3b).  Those
queries carry a ``defect`` tag and the defect's known ``symptoms``: the
answers the defect is known to give instead (3b: no candidate at all; 3a: a
second candidate, the other subject, with either subject winning).  Any other
wrong answer to a tagged query is as unexpected as on an untagged one.

The soft-link corpus has no hard identifiers at all.  Surnames have a fixed
Zipf popularity profile; the seed only picks the strings.  Subjects sharing a
surname form alias groups whose aliases share middle initials
(``Arun K. R. Kamisa``); names in one group overlap by 3/5 and across groups
by at most 1/3, so the soft-link threshold of 0.5 merges exactly the groups.
A surname query therefore yields one candidate per group, and the largest
group (strictly largest by construction) wins.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

# The built-in capability matrix, as the paper's table states it: which
# collectors a query of each kind is routed to (names route as keywords).
ROUTES: dict[str, tuple[str, ...]] = {
    "email": ("maltego", "pipl", "rapportive", "searchbug", "verify_email", "whatbreach"),
    "phone": ("bmobile", "maltego", "pipl"),
    "twitter": ("maltego", "social_bearing", "social_buzz", "tinfoleak"),
    "facebook": ("maltego", "stalkscan"),
    "instagram": ("maltego", "upolos"),
    "domain": ("maltego", "vivial"),
    "keyword": ("maltego", "webmii"),
}
COLLECTORS = tuple(sorted(set(itertools.chain.from_iterable(ROUTES.values()))))
# Accept columns of the six email collectors (the ROUTES keys are the
# registry's column spellings), to re-declare them as HTTP collectors in the
# http-fanout overlay.
EMAIL_COLLECTOR_COLUMNS = {
    name: tuple(sorted(column for column, names in ROUTES.items() if name in names))
    for name in ROUTES["email"]
}

PIN_TIMESTAMP = "2020-01-01T00:00:00+00:00"
TEMPLATE = "employee"
HTTP_TIMEOUT_MS = 300
STALLING_COLLECTOR = "whatbreach"

_CONSONANTS = "bdfghklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = tuple(c + v for c in _CONSONANTS for v in _VOWELS)
_TLDS = (".com", ".io", ".dev", ".net", ".org", ".in")  # none is a prefix of another
_FREE_MAIL = ("yahoo.com", "outlook.com", "hotmail.com", "proton.me", "yandex.ru", "rediffmail.com")
_PLANTED_PAIRS = (("mail.com", "gmail.com"), ("ample.com", "example.com"))
_CITIES = (
    "Pune", "Leeds", "Austin", "Lyon", "Osaka", "Porto", "Quito", "Accra", "Perth",
    "Kochi", "Graz", "Turku", "Cork", "Bergen", "Malmo", "Dhaka", "Cusco", "Hue",
)
_STREETS = ("Rose", "Mill", "Park", "Lake", "Hill", "Station", "Church", "Bridge", "Canal")
_URL_PATHS = ("about", "cv", "blog", "team", "contact")
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

# Fixed workload shapes.  Sizes are part of the benchmark definition; the
# seed never changes them, so runs on different seeds do the same work.
WARM_SUBJECTS = 10_000
ONESHOT_SUBJECTS = 1_000
HTTP_SUBJECTS = 300
SOFT_SURNAMES = 45  # so p50 and p90 fall inside one surname's samples, not between two
SOFT_TOP_SUBJECTS = 166  # 6 records each: the largest query is ~10^3 records
SOFT_RECORDS_PER_SUBJECT = 6

# Query kinds per block.  A run measures whole blocks, so every run sees the
# same mix.  "phone-national" and "domain-suffix" are the defect slots.
WARM_BLOCK = (
    ["email"] * 5 + ["phone"] * 3 + ["phone-national"]
    + ["twitter", "twitter-hinted", "facebook", "facebook", "instagram", "instagram-hinted"]
    + ["domain"] * 2 + ["domain-suffix"] + ["name"] * 2
)
ONESHOT_BLOCK = (
    ["email"] * 3 + ["phone", "phone-national", "twitter", "facebook", "instagram"]
    + ["domain", "name"]
)
HTTP_BLOCK = 5  # email queries per block, exactly one of which stalls


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(syllables))


def _unique(rng: random.Random, used: set, make) -> str:
    while True:
        value = make(rng)
        if value not in used:
            used.add(value)
            return value


def _national_digits(rng: random.Random) -> str:
    return rng.choice("6789") + "".join(rng.choice("0123456789") for _ in range(9))


def _phone(rng: random.Random, national: bool, used: set) -> tuple[str, str]:
    """A phone string in a realistic format and its E.164 form (with the
    ``IN`` region for national numbers), unique across the corpus."""
    while True:
        if national:
            digits = _national_digits(rng)
            raw, canonical = f"0{digits[:5]} {digits[5:]}", "+910" + digits
        else:
            style = rng.randrange(4)
            if style == 0:
                digits = _national_digits(rng)
                raw, canonical = f"+91 {digits[:5]} {digits[5:]}", "+91" + digits
            elif style == 1:
                digits = "7" + "".join(rng.choice("0123456789") for _ in range(9))
                raw, canonical = f"+44 {digits[:4]} {digits[4:]}", "+44" + digits
            elif style == 2:
                digits = "".join(rng.choice("23456789") for _ in range(3)) + "".join(
                    rng.choice("0123456789") for _ in range(7)
                )
                raw = f"+1 ({digits[:3]}) {digits[3:6]}-{digits[6:]}"
                canonical = "+1" + digits
            else:
                digits = "30" + "".join(rng.choice("0123456789") for _ in range(8))
                raw, canonical = f"+49 {digits[:2]} {digits[2:]}", "+49" + digits
        if canonical not in used:
            used.add(canonical)
            return raw, canonical


def _fact(subject: str, attribute: str, value: str, platforms, rng: random.Random) -> dict:
    return {
        "subject_id": subject,
        "attribute": attribute,
        "value": value,
        "platforms": sorted(platforms),
        "confidence": round(rng.uniform(0.5, 1.0), 2),
    }


def _some(rng: random.Random, low: int, high: int) -> set:
    return set(rng.sample(COLLECTORS, rng.randint(low, high)))


def identity_subjects(rng: random.Random, count: int) -> list[dict]:
    """Subjects with hard identifiers; see the module docstring for the rules."""
    planted = list(_PLANTED_PAIRS)
    extra_pairs = max(0, count // 60 - len(planted))
    used_domains = {d for pair in planted for d in pair}
    for _ in range(extra_pairs):
        base = _unique(rng, used_domains, lambda r: _word(r, 3) + r.choice(_TLDS))
        shadow = _unique(rng, used_domains, lambda r, b=base: r.choice(_LETTERS).lower() + b)
        planted.append((base, shadow))
    owners = set(rng.sample(range(count), k=count // 3))
    slots = sorted(owners)
    rng.shuffle(slots)
    pair_owner = {}
    for (base, shadow), (i, j) in zip(planted, zip(slots[0::2], slots[1::2])):
        pair_owner[i], pair_owner[j] = (base, "base"), (shadow, "shadow")

    used_names: set = set()
    used_phones: set = set()
    used_handles: dict[str, set] = {"twitter": set(), "facebook": set(), "instagram": set()}
    subjects = []
    for index in range(count):
        sid = f"subj-{index:05d}"
        pair = _unique(
            rng, used_names, lambda r: (_word(r, 2).capitalize(), _word(r, 3).capitalize())
        )
        given, surname = pair
        domain, role = None, None
        if index in pair_owner:
            domain, role = pair_owner[index]
        elif index in owners:
            domain = _unique(rng, used_domains, lambda r: _word(r, 3) + r.choice(_TLDS))
            role = "own"
        if domain is not None:
            email = f"{given.lower()}@{domain}"
        else:
            email = f"{given}.{surname}@{rng.choice(_FREE_MAIL)}"
        email_raw = email if rng.random() < 0.3 else email.lower()
        national = rng.random() < 0.3
        phone, phone_canonical = _phone(rng, national, used_phones)
        platforms = [p for p in used_handles if rng.random() < 0.5] or [
            rng.choice(sorted(used_handles))
        ]
        handles = {}
        for platform in platforms:
            sep = "." if platform != "twitter" else "_"
            handle = _unique(
                rng,
                used_handles[platform],
                lambda r, s=sep: f"{given}{s}{surname}{r.randrange(10, 100)}".lower(),
            )
            handles[platform] = ("@" + handle) if rng.random() < 0.5 else handle

        facts = [
            _fact(sid, "full_name", f"{given} {surname}", {"maltego", "webmii"} | _some(rng, 0, 2), rng),
            _fact(sid, "email", email_raw, COLLECTORS, rng),
            _fact(sid, "phone", phone, set(ROUTES["phone"]) | _some(rng, 0, 2), rng),
            _fact(sid, "location", rng.choice(_CITIES), _some(rng, 1, 4), rng),
        ]
        for platform, handle in sorted(handles.items()):
            facts.append(_fact(sid, f"social_handle_{platform}", handle, ROUTES[platform], rng))
        if domain is not None:
            url = f"https://{domain}/{rng.choice(_URL_PATHS)}"
            facts.append(_fact(sid, "url", url, {"maltego", "vivial", "webmii"}, rng))
        subjects.append(
            {
                "id": sid,
                "name": f"{given} {surname}",
                "email": email.lower(),
                "email_raw": email_raw,
                "phone": phone,
                "phone_canonical": phone_canonical,
                "national": national,
                "handles": handles,
                "domain": domain,
                "domain_role": role,
                "facts": facts,
            }
        )
    # A planted base domain is a substring of its shadow's URL, so a query
    # for it (defect 3a) also finds the shadow subject.
    by_domain = {s["domain"]: s for s in subjects if s["domain"] is not None}
    for base, shadow in planted:
        if base in by_domain and shadow in by_domain:
            by_domain[base]["shadow"] = _answer(by_domain[shadow], ROUTES["domain"])
    return subjects


def _visible(subject: dict, collectors) -> int:
    """Records the subject contributes when *collectors* each return its batch."""
    return sum(len(set(f["platforms"]) & set(collectors)) for f in subject["facts"])


def _answer(subject: dict, collectors) -> dict:
    """The winning cluster when *subject* wins with *collectors* routed."""
    return {
        "subject": subject["id"],
        "size": _visible(subject, collectors),
        "marker": f"- email: {subject['email']} — sources: ",
    }


def _identity_query(subject: dict, slot: str, rng: random.Random) -> dict:
    """Raw query, CLI kind and expected answer for one slot of a block."""
    defect = None
    kind = "auto"
    if slot == "email":
        route = "email"
        raw = subject["email"] if rng.random() < 0.5 else subject["email_raw"]
    elif slot.startswith("phone"):
        raw, route = subject["phone"], "phone"
        if subject["national"]:
            defect = "3b"
        elif rng.random() < 0.5:
            raw = "+" + "".join(ch for ch in raw if ch.isdigit())
    elif slot in ("twitter", "facebook", "instagram"):
        raw, route = f"{slot}:{subject['handles'][slot].lstrip('@')}", slot
    elif slot.endswith("-hinted"):
        route = kind = slot[: -len("-hinted")]
        raw = "@" + subject["handles"][route].lstrip("@")
    elif slot.startswith("domain"):
        raw, route = subject["domain"], "domain"
        if subject["domain_role"] == "base":
            defect = "3a"
    else:
        raw, route = subject["name"], "keyword"
    target = _answer(subject, ROUTES[route])
    symptoms = []
    if defect == "3b":
        symptoms = [{"subject": None, "candidates": 0, "size": 0, "marker": None, "failures": []}]
    elif defect == "3a":
        symptoms = [
            {**winner, "candidates": 2, "failures": []} for winner in (target, subject["shadow"])
        ]
    return {
        "raw": raw,
        "kind": kind,
        "slot": slot,
        "expect": {**target, "candidates": 1, "failures": [], "defect": defect, "symptoms": symptoms},
    }


def _slot_pool(subject: dict, slot: str) -> bool:
    if slot == "phone-national":
        return subject["national"]
    if slot == "phone":
        return not subject["national"]
    if slot in ("twitter", "facebook", "instagram"):
        return slot in subject["handles"]
    if slot.endswith("-hinted"):
        return slot[: -len("-hinted")] in subject["handles"]
    if slot == "domain":
        return subject["domain_role"] in ("own", "shadow")
    if slot == "domain-suffix":
        return subject["domain_role"] == "base"
    return True


def identity_blocks(rng: random.Random, subjects: list[dict], block: list[str], count: int):
    """*count* blocks of queries; each block holds the slots of *block* in a
    seeded order, and no subject is queried twice until its pool runs dry."""
    pools: dict[str, list] = {}
    blocks = []
    for _ in range(count):
        queries = []
        for slot in block:
            pool = pools.get(slot)
            if not pool:
                pool = [s for s in subjects if _slot_pool(s, slot)]
                rng.shuffle(pool)
                pools[slot] = pool
            queries.append(_identity_query(pool.pop(), slot, rng))
        rng.shuffle(queries)
        blocks.append(queries)
    return blocks


def soft_group_sizes(members: int) -> list[int]:
    """Alias group sizes for one surname: one strict majority, then threes."""
    first = members // 2 + 1
    rest = members - first
    return [first] + [min(3, rest - k) for k in range(0, rest, 3)]


def soft_subjects(rng: random.Random, surnames: int, top: int) -> tuple[list[dict], list[dict]]:
    """Identifier-free subjects and one record per surname describing its groups."""
    used_surnames: set = set()
    used_dates: set = set()
    used_places: set = set()
    pairs = [a + b for a, b in itertools.combinations(_LETTERS, 2)]
    subjects, families = [], []
    for rank in range(1, surnames + 1):
        surname = _unique(rng, used_surnames, lambda r: _word(r, 3).capitalize())
        members = max(1, round(top / rank))
        givens: set = set()
        groups = []
        sizes = soft_group_sizes(members)
        for size, initials in zip(sizes, rng.sample(pairs, len(sizes))):
            group = []
            for _ in range(size):
                given = _unique(rng, givens, lambda r: _word(r, 2).capitalize())
                sid = f"subj-{len(subjects):05d}"
                born = _unique(
                    rng,
                    used_dates,
                    lambda r: f"{r.randint(1940, 2004)}-{r.randint(1, 12):02d}-{r.randint(1, 28):02d}",
                )
                place = _unique(
                    rng,
                    used_places,
                    lambda r: f"{r.randint(1, 999)} {r.choice(_STREETS)} Road, {r.choice(_CITIES)}",
                )
                facts = [
                    _fact(sid, "full_name", f"{given} {surname}", {"maltego", "webmii"}, rng),
                    _fact(sid, "alias", f"{given} {initials[0]}. {initials[1]}. {surname}", {"maltego", "webmii"}, rng),
                    _fact(sid, "date_of_birth", born, {"maltego"}, rng),
                    _fact(sid, "location", place, {"webmii"}, rng),
                ]
                subjects.append({"id": sid, "name": f"{given} {surname}", "facts": facts})
                group.append(sid)
            groups.append(group)
        families.append({"surname": surname, "groups": groups})
    return subjects, families


def _soft_query(family: dict, names: dict) -> dict:
    winner = family["groups"][0]
    return {
        "raw": family["surname"],
        "kind": "auto",
        "slot": "surname",
        "expect": {
            "subject": winner[0],
            "candidates": len(family["groups"]),
            "size": SOFT_RECORDS_PER_SUBJECT * len(winner),
            "marker": f"- full_name: {names[winner[0]]} — sources: maltego, webmii",
            "failures": [],
            "defect": None,
            "symptoms": [],
        },
    }


def _write_corpus(path: Path, subjects: list[dict]) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as stream:
        for subject in subjects:
            for fact in subject["facts"]:
                stream.write(json.dumps(fact, sort_keys=True, ensure_ascii=False) + "\n")


def _http_blocks(rng: random.Random, subjects: list[dict], count: int, timeout_ms: int):
    """Blocks of email queries; one query per block hits a subject whose
    lookups always stall at the stalling collector."""
    stalling = subjects[: len(subjects) // HTTP_BLOCK]
    healthy = subjects[len(stalling):]
    pools: dict[bool, list] = {True: [], False: []}
    stall_line = f"- {STALLING_COLLECTOR}: timeout (no response within {timeout_ms} ms)"
    blocks = []
    for _ in range(count):
        stalled_at = rng.randrange(HTTP_BLOCK)
        queries = []
        for position in range(HTTP_BLOCK):
            stalls = position == stalled_at
            if not pools[stalls]:
                pools[stalls] = list(stalling if stalls else healthy)
                rng.shuffle(pools[stalls])
            subject = pools[stalls].pop()
            collectors = [c for c in ROUTES["email"] if not (stalls and c == STALLING_COLLECTOR)]
            queries.append(
                {
                    "raw": subject["email"],
                    "kind": "auto",
                    "slot": "email-stall" if stalls else "email",
                    "expect": {
                        **_answer(subject, collectors),
                        "candidates": 1,
                        "failures": [stall_line] if stalls else [],
                        "defect": None,
                        "symptoms": [],
                    },
                }
            )
        blocks.append(queries)
    return blocks, sorted(s["email"] for s in stalling)


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's inputs under *out_dir* and return its plan.

    The plan holds the corpus file name, the query blocks with their expected
    answers and, for ``http-fanout``, the stall list the server needs.  The
    blocks go to ``queries.json`` and the rest to ``plan.json``.
    """
    rng = random.Random(f"perfbench:{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = out_dir / "corpus.jsonl"
    plan: dict = {"workload": workload, "seed": seed, "corpus": corpus.name}
    if workload == "soft-link":
        subjects, families = soft_subjects(rng, SOFT_SURNAMES, SOFT_TOP_SUBJECTS)
        names = {s["id"]: s["name"] for s in subjects}
        blocks = []
        for _ in range(20):
            order = list(families)
            rng.shuffle(order)
            blocks.append([_soft_query(f, names) for f in order])
    elif workload == "http-fanout":
        subjects = identity_subjects(rng, HTTP_SUBJECTS)
        blocks, stalls = _http_blocks(rng, subjects, 60, HTTP_TIMEOUT_MS)
        plan["stalls"] = [[STALLING_COLLECTOR, email] for email in stalls]
        plan["timeout_ms"] = HTTP_TIMEOUT_MS
    elif workload in ("warm-lookup", "oneshot-cli"):
        warm = workload == "warm-lookup"
        subjects = identity_subjects(rng, WARM_SUBJECTS if warm else ONESHOT_SUBJECTS)
        blocks = identity_blocks(rng, subjects, WARM_BLOCK if warm else ONESHOT_BLOCK, 40)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write_corpus(corpus, subjects)
    plan["subjects"] = len(subjects)
    plan["facts"] = sum(len(s["facts"]) for s in subjects)
    (out_dir / "plan.json").write_text(json.dumps(plan, sort_keys=True) + "\n", encoding="utf-8")
    (out_dir / "queries.json").write_text(
        json.dumps(blocks, sort_keys=True, ensure_ascii=False, indent=1) + "\n", encoding="utf-8"
    )
    if "stalls" in plan:
        (out_dir / "stalls.json").write_text(json.dumps(plan["stalls"]) + "\n", encoding="utf-8")
    plan["blocks"] = blocks
    return plan


if __name__ == "__main__":
    # python3 gen.py WORKLOAD SEED OUT_DIR: write the inputs and the plan.
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
