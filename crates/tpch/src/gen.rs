//! dbgen-style data generation for the eight TPC-H tables.
//!
//! Row counts follow the TPC-H specification scaled by `scale`:
//! supplier 10k·SF, part 200k·SF, customer 150k·SF, orders 1.5M·SF,
//! partsupp = 4 per part, lineitem = 1–7 per order, nation 25, region 5.
//! Values use the spec's vocabulary (nation names, part type words,
//! market segments, priorities) and shapes (money with two decimals,
//! dates in 1992–1998, grammar-free comment text).

use crate::rng::Xorshift;

/// One TPC-H table: a name, column names, and string-typed rows (the dump
/// format is textual; types only matter to the columnar codec downstream).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table {
    pub name: &'static str,
    pub columns: Vec<&'static str>,
    pub rows: Vec<Vec<String>>,
}

/// The whole generated database.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Database {
    pub tables: Vec<Table>,
}

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const NATIONS: [(&str, usize); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];
const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const INSTRUCTIONS: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];
const MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
const TYPE_SYL1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_SYL2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_SYL3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
const CONTAINERS1: [&str; 5] = ["SM", "MED", "LG", "JUMBO", "WRAP"];
const CONTAINERS2: [&str; 8] = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];
const COLORS: [&str; 12] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
];
const NOUNS: [&str; 12] = [
    "packages",
    "requests",
    "accounts",
    "deposits",
    "foxes",
    "ideas",
    "theodolites",
    "pinto beans",
    "instructions",
    "dependencies",
    "excuses",
    "platelets",
];
const VERBS: [&str; 10] = [
    "sleep",
    "haggle",
    "nag",
    "wake",
    "cajole",
    "detect",
    "integrate",
    "boost",
    "doze",
    "unwind",
];
const ADVERBS: [&str; 8] = [
    "quickly",
    "slowly",
    "carefully",
    "furiously",
    "blithely",
    "daringly",
    "ruthlessly",
    "never",
];

/// Grammar-ish comment text of bounded length.
fn comment(rng: &mut Xorshift, max_words: usize) -> String {
    let n = rng.range(2, max_words as i64) as usize;
    let mut out = String::new();
    for i in 0..n {
        if i > 0 {
            out.push(' ');
        }
        let word = match i % 3 {
            0 => rng.pick(&ADVERBS),
            1 => rng.pick(&NOUNS),
            _ => rng.pick(&VERBS),
        };
        out.push_str(word);
    }
    out
}

/// Money value with exactly two decimals.
fn money(rng: &mut Xorshift, lo_cents: i64, hi_cents: i64) -> String {
    let cents = rng.range(lo_cents, hi_cents);
    format!("{}.{:02}", cents / 100, (cents % 100).abs())
}

/// Day `base + offset` counted from 1992-01-01, rendered YYYY-MM-DD.
fn date_with_offset(base: i64, offset: i64) -> String {
    let mut days = base + offset;
    let mut year = 1992;
    loop {
        let leap = year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
        let in_year = if leap { 366 } else { 365 };
        if days < in_year {
            break;
        }
        days -= in_year;
        year += 1;
    }
    let leap = year % 4 == 0 && (year % 100 != 0 || year % 400 == 0);
    let month_days = [
        31,
        if leap { 29 } else { 28 },
        31,
        30,
        31,
        30,
        31,
        31,
        30,
        31,
        30,
        31,
    ];
    let mut month = 0usize;
    while days >= month_days[month] {
        days -= month_days[month];
        month += 1;
    }
    format!("{year:04}-{:02}-{:02}", month + 1, days + 1)
}

fn phone(rng: &mut Xorshift, nation: usize) -> String {
    format!(
        "{}-{:03}-{:03}-{:04}",
        10 + nation,
        rng.range(100, 999),
        rng.range(100, 999),
        rng.range(1000, 9999)
    )
}

fn address(rng: &mut Xorshift) -> String {
    let n = rng.range(8, 24) as usize;
    let mut s = String::with_capacity(n);
    for _ in 0..n {
        let c = b"abcdefghijklmnopqrstuvwxyz0123456789 ,"[rng.range(0, 37) as usize];
        s.push(c as char);
    }
    s.trim().to_string()
}

impl Database {
    /// Generate all eight tables at the given scale factor.
    pub fn generate(scale: f64, seed: u64) -> Database {
        let mut rng = Xorshift::new(seed ^ 0x7C07_7C07);
        let n_supplier = ((10_000.0 * scale).round() as usize).max(1);
        let n_part = ((200_000.0 * scale).round() as usize).max(1);
        let n_customer = ((150_000.0 * scale).round() as usize).max(1);
        let n_orders = ((1_500_000.0 * scale).round() as usize).max(1);

        let region = Table {
            name: "region",
            columns: vec!["r_regionkey", "r_name", "r_comment"],
            rows: REGIONS
                .iter()
                .enumerate()
                .map(|(i, name)| vec![i.to_string(), name.to_string(), comment(&mut rng, 8)])
                .collect(),
        };
        let nation = Table {
            name: "nation",
            columns: vec!["n_nationkey", "n_name", "n_regionkey", "n_comment"],
            rows: NATIONS
                .iter()
                .enumerate()
                .map(|(i, (name, r))| {
                    vec![
                        i.to_string(),
                        name.to_string(),
                        r.to_string(),
                        comment(&mut rng, 10),
                    ]
                })
                .collect(),
        };
        let supplier = Table {
            name: "supplier",
            columns: vec![
                "s_suppkey",
                "s_name",
                "s_address",
                "s_nationkey",
                "s_phone",
                "s_acctbal",
                "s_comment",
            ],
            rows: (1..=n_supplier)
                .map(|k| {
                    let nat = rng.range(0, 24) as usize;
                    vec![
                        k.to_string(),
                        format!("Supplier#{k:09}"),
                        address(&mut rng),
                        nat.to_string(),
                        phone(&mut rng, nat),
                        money(&mut rng, -99_999, 999_999),
                        comment(&mut rng, 12),
                    ]
                })
                .collect(),
        };
        let customer = Table {
            name: "customer",
            columns: vec![
                "c_custkey",
                "c_name",
                "c_address",
                "c_nationkey",
                "c_phone",
                "c_acctbal",
                "c_mktsegment",
                "c_comment",
            ],
            rows: (1..=n_customer)
                .map(|k| {
                    let nat = rng.range(0, 24) as usize;
                    vec![
                        k.to_string(),
                        format!("Customer#{k:09}"),
                        address(&mut rng),
                        nat.to_string(),
                        phone(&mut rng, nat),
                        money(&mut rng, -99_999, 999_999),
                        rng.pick(&SEGMENTS).to_string(),
                        comment(&mut rng, 14),
                    ]
                })
                .collect(),
        };
        let part = Table {
            name: "part",
            columns: vec![
                "p_partkey",
                "p_name",
                "p_mfgr",
                "p_brand",
                "p_type",
                "p_size",
                "p_container",
                "p_retailprice",
                "p_comment",
            ],
            rows: (1..=n_part)
                .map(|k| {
                    let m = rng.range(1, 5);
                    vec![
                        k.to_string(),
                        format!("{} {}", rng.pick(&COLORS), rng.pick(&NOUNS)),
                        format!("Manufacturer#{m}"),
                        format!("Brand#{m}{}", rng.range(1, 5)),
                        format!(
                            "{} {} {}",
                            rng.pick(&TYPE_SYL1),
                            rng.pick(&TYPE_SYL2),
                            rng.pick(&TYPE_SYL3)
                        ),
                        rng.range(1, 50).to_string(),
                        format!("{} {}", rng.pick(&CONTAINERS1), rng.pick(&CONTAINERS2)),
                        money(&mut rng, 90_000, 200_000),
                        comment(&mut rng, 6),
                    ]
                })
                .collect(),
        };
        let partsupp = Table {
            name: "partsupp",
            columns: vec![
                "ps_partkey",
                "ps_suppkey",
                "ps_availqty",
                "ps_supplycost",
                "ps_comment",
            ],
            rows: (1..=n_part)
                .flat_map(|p| (0..4).map(move |s| (p, s)))
                .map(|(p, s)| {
                    let supp = (p + s * (n_part / 4 + 1)) % n_supplier + 1;
                    vec![
                        p.to_string(),
                        supp.to_string(),
                        rng.range(1, 9999).to_string(),
                        money(&mut rng, 100, 100_000),
                        comment(&mut rng, 20),
                    ]
                })
                .collect(),
        };
        let mut orders_rows = Vec::with_capacity(n_orders);
        let mut lineitem_rows = Vec::new();
        for k in 1..=n_orders {
            // Sparse order keys like dbgen (skip 4 of every 8).
            let okey = (k - 1) / 8 * 32 + (k - 1) % 8 + 1;
            let cust = rng.range(1, n_customer as i64).to_string();
            let odate_base = rng.range(0, 2285);
            let n_lines = rng.range(1, 7);
            let mut total_cents = 0i64;
            for line in 1..=n_lines {
                let qty = rng.range(1, 50);
                let price_cents = rng.range(90_000, 200_000) * qty / 10;
                total_cents += price_cents;
                let ship = rng.range(1, 121);
                lineitem_rows.push(vec![
                    okey.to_string(),
                    rng.range(1, n_part as i64).to_string(),
                    rng.range(1, n_supplier as i64).to_string(),
                    line.to_string(),
                    qty.to_string(),
                    format!("{}.{:02}", price_cents / 100, price_cents % 100),
                    format!("0.{:02}", rng.range(0, 10)),
                    format!("0.{:02}", rng.range(0, 8)),
                    if rng.range(0, 99) < 25 { "R" } else { "N" }.to_string(),
                    if odate_base + ship < 2165 { "F" } else { "O" }.to_string(),
                    date_with_offset(odate_base, ship),
                    date_with_offset(odate_base, ship + rng.range(1, 30)),
                    date_with_offset(odate_base, ship + rng.range(1, 30)),
                    rng.pick(&INSTRUCTIONS).to_string(),
                    rng.pick(&MODES).to_string(),
                    comment(&mut rng, 8),
                ]);
            }
            orders_rows.push(vec![
                okey.to_string(),
                cust,
                if odate_base < 2165 { "F" } else { "O" }.to_string(),
                format!("{}.{:02}", total_cents / 100, total_cents % 100),
                date_with_offset(odate_base, 0),
                rng.pick(&PRIORITIES).to_string(),
                format!("Clerk#{:09}", rng.range(1, (n_orders as i64 / 15).max(1))),
                "0".to_string(),
                comment(&mut rng, 14),
            ]);
        }
        let orders = Table {
            name: "orders",
            columns: vec![
                "o_orderkey",
                "o_custkey",
                "o_orderstatus",
                "o_totalprice",
                "o_orderdate",
                "o_orderpriority",
                "o_clerk",
                "o_shippriority",
                "o_comment",
            ],
            rows: orders_rows,
        };
        let lineitem = Table {
            name: "lineitem",
            columns: vec![
                "l_orderkey",
                "l_partkey",
                "l_suppkey",
                "l_linenumber",
                "l_quantity",
                "l_extendedprice",
                "l_discount",
                "l_tax",
                "l_returnflag",
                "l_linestatus",
                "l_shipdate",
                "l_commitdate",
                "l_receiptdate",
                "l_shipinstruct",
                "l_shipmode",
                "l_comment",
            ],
            rows: lineitem_rows,
        };
        Database {
            tables: vec![
                region, nation, supplier, customer, part, partsupp, orders, lineitem,
            ],
        }
    }

    /// Find a table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.iter().find(|t| t.name == name)
    }

    /// Total row count across tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.rows.len()).sum()
    }
}

impl Table {
    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|&c| c == name)
    }

    /// Sum a numeric (integer or fixed-point) column, in cents when a
    /// decimal point is present.
    pub fn sum_cents(&self, column: &str) -> Option<i64> {
        let idx = self.column_index(column)?;
        let mut total = 0i64;
        for row in &self.rows {
            let v = &row[idx];
            let cents = match v.split_once('.') {
                Some((whole, frac)) => {
                    let sign = if whole.starts_with('-') { -1 } else { 1 };
                    whole.parse::<i64>().ok()? * 100 + sign * frac.parse::<i64>().ok()?
                }
                None => v.parse::<i64>().ok()? * 100,
            };
            total += cents;
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = Database::generate(0.0002, 5);
        let b = Database::generate(0.0002, 5);
        assert_eq!(a, b);
        let c = Database::generate(0.0002, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn row_counts_scale() {
        let db = Database::generate(0.001, 1);
        assert_eq!(db.table("region").unwrap().rows.len(), 5);
        assert_eq!(db.table("nation").unwrap().rows.len(), 25);
        assert_eq!(db.table("supplier").unwrap().rows.len(), 10);
        assert_eq!(db.table("customer").unwrap().rows.len(), 150);
        assert_eq!(db.table("part").unwrap().rows.len(), 200);
        assert_eq!(db.table("partsupp").unwrap().rows.len(), 800);
        assert_eq!(db.table("orders").unwrap().rows.len(), 1500);
        let li = db.table("lineitem").unwrap().rows.len();
        assert!((1500..=10_500).contains(&li), "lineitem {li}");
    }

    #[test]
    fn dates_are_well_formed() {
        let db = Database::generate(0.0005, 3);
        let orders = db.table("orders").unwrap();
        let idx = orders.column_index("o_orderdate").unwrap();
        for row in &orders.rows {
            let d = &row[idx];
            assert_eq!(d.len(), 10, "{d}");
            let year: i32 = d[..4].parse().unwrap();
            let month: u32 = d[5..7].parse().unwrap();
            let day: u32 = d[8..10].parse().unwrap();
            assert!((1992..=1998).contains(&year), "{d}");
            assert!((1..=12).contains(&month), "{d}");
            assert!((1..=31).contains(&day), "{d}");
        }
    }

    #[test]
    fn leap_year_date_math() {
        assert_eq!(date_with_offset(0, 0), "1992-01-01");
        assert_eq!(date_with_offset(30, 1), "1992-02-01");
        assert_eq!(date_with_offset(59, 0), "1992-02-29"); // 1992 is a leap year
        assert_eq!(date_with_offset(366, 0), "1993-01-01");
    }

    #[test]
    fn money_has_two_decimals() {
        let db = Database::generate(0.0002, 11);
        let cust = db.table("customer").unwrap();
        let idx = cust.column_index("c_acctbal").unwrap();
        for row in &cust.rows {
            let (_, frac) = row[idx].split_once('.').expect("decimal point");
            assert_eq!(frac.len(), 2, "{}", row[idx]);
        }
    }

    #[test]
    fn no_tabs_or_newlines_in_values() {
        // Tab and newline are the COPY delimiters; values must stay clean.
        let db = Database::generate(0.0005, 4);
        for t in &db.tables {
            for row in &t.rows {
                for v in row {
                    assert!(!v.contains('\t') && !v.contains('\n'), "{}: {v:?}", t.name);
                }
            }
        }
    }

    #[test]
    fn sum_cents_aggregates() {
        let t = Table {
            name: "t",
            columns: vec!["v"],
            rows: vec![
                vec!["1.50".into()],
                vec!["2.25".into()],
                vec!["-0.75".into()],
            ],
        };
        assert_eq!(t.sum_cents("v"), Some(300));
    }
}
